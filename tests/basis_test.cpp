#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "spectral/spectrum.h"
#include "util/combinations.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/qinfo.h"

namespace sani::verify {
namespace {

constexpr EngineKind kAllEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                      EngineKind::kMAPI, EngineKind::kFUJITA};

std::string fingerprint(const VerifyResult& r) {
  std::string fp = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  if (r.counterexample) {
    fp += " |";
    for (const auto& o : r.counterexample->observables) fp += " " + o;
    fp += " | alpha=" + r.counterexample->alpha.to_string();
    fp += " | " + r.counterexample->reason;
  }
  return fp;
}

// ---------------------------------------------------------------------------
// The shared Basis must reproduce exactly the base spectra the old
// per-backend prepare() loops computed: Spectrum::from_bdd of every nonempty
// XOR-subset of every observable, in subset-enumeration order.
// ---------------------------------------------------------------------------

void expect_basis_matches_direct(const char* name, bool robust) {
  circuit::Gadget g = gadgets::by_name(name);
  circuit::Unfolded u = circuit::unfold(g);
  ProbeModelOptions probes;
  probes.glitch_robust = robust;
  ObservableSet obs = build_observables(g, u, probes);

  BasisNeeds needs;
  needs.spectra = true;
  needs.lil = true;
  std::shared_ptr<const Basis> basis = build_basis(u, obs, needs);

  ASSERT_EQ(basis->size(), obs.size());
  std::uint64_t direct_coeffs = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    std::vector<spectral::Spectrum> direct;
    for_each_xor_subset(obs.items[i], *u.manager, [&](const dd::Bdd& x) {
      direct.push_back(spectral::Spectrum::from_bdd(x));
      direct_coeffs += direct.back().nonzero_count();
    });
    ASSERT_EQ(basis->obs[i].num_subsets, direct.size()) << name << " obs " << i;
    ASSERT_EQ(basis->flat[i].size(), direct.size()) << name << " obs " << i;
    for (std::size_t s = 0; s < direct.size(); ++s) {
      EXPECT_TRUE(basis->flat[i][s].is_canonical())
          << name << " obs " << i << " subset " << s;
      EXPECT_TRUE(basis->flat[i][s].to_spectrum() == direct[s])
          << name << " obs " << i << " subset " << s;
      // The sorted-list mirror holds the same coefficients.
      ASSERT_EQ(basis->lil[i][s].nonzero_count(), direct[s].nonzero_count());
      for (const auto& [alpha, v] : basis->lil[i][s].entries())
        EXPECT_EQ(v, direct[s].at(alpha));
    }
  }
  EXPECT_EQ(basis->base_coefficients, direct_coeffs) << name;
  EXPECT_EQ(basis->num_outputs, obs.num_outputs);
}

TEST(Basis, MatchesDirectSpectraStandardModel) {
  expect_basis_matches_direct("dom-1", false);
  expect_basis_matches_direct("isw-2", false);
}

TEST(Basis, MatchesDirectSpectraRobustModel) {
  expect_basis_matches_direct("dom-1", true);
  expect_basis_matches_direct("dom-2", true);
}

TEST(Basis, FujitaBasisCarriesFrozenFunctionsOnly) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  std::shared_ptr<const Basis> basis =
      build_basis(u, obs, EngineKind::kFUJITA);
  EXPECT_EQ(basis->size(), obs.size());
  EXPECT_TRUE(basis->flat.empty());
  EXPECT_TRUE(basis->lil.empty());
  EXPECT_EQ(basis->base_coefficients, 0u);
  // Instead of spectra, the FUJITA basis freezes every XOR-subset BDD so
  // workers can thaw them without a replay.
  EXPECT_FALSE(basis->frozen.empty());
  ASSERT_EQ(basis->frozen_fn_roots.size(), obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i)
    EXPECT_EQ(basis->frozen_fn_roots[i].size(), basis->obs[i].num_subsets);
  EXPECT_TRUE(basis->frozen_spectrum_roots.empty());
  std::shared_ptr<const Basis> lil_basis =
      build_basis(u, obs, EngineKind::kLIL);
  EXPECT_FALSE(lil_basis->flat.empty());
  EXPECT_FALSE(lil_basis->lil.empty());
  EXPECT_TRUE(lil_basis->frozen.empty());
  std::shared_ptr<const Basis> map_basis =
      build_basis(u, obs, EngineKind::kMAP);
  EXPECT_FALSE(map_basis->flat.empty());
  EXPECT_TRUE(map_basis->lil.empty());
  EXPECT_TRUE(map_basis->frozen.empty());
}

TEST(Basis, MapiBasisCarriesFrozenSpectra) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  std::shared_ptr<const Basis> basis = build_basis(u, obs, EngineKind::kMAPI);
  // MAPI keeps the numeric spectra (the backend scans them) and additionally
  // freezes the base-spectrum ADDs so each worker can pre-warm its private
  // manager by thawing instead of replaying the unfolding.
  EXPECT_FALSE(basis->flat.empty());
  EXPECT_FALSE(basis->frozen.empty());
  ASSERT_EQ(basis->frozen_spectrum_roots.size(), obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i)
    EXPECT_EQ(basis->frozen_spectrum_roots[i].size(),
              basis->obs[i].num_subsets);
  EXPECT_TRUE(basis->frozen_fn_roots.empty());
}

// DIRECT's basis takes the support-local dense FWHT; the paper engines keep
// the Fujita transform.  On every registry gadget, in both probe models, the
// two bases carry the same spectra.
TEST(Basis, DenseDirectBasisEqualsFujitaBasis) {
  EXPECT_TRUE(backend_info(EngineKind::kDIRECT).dense_spectra);
  for (EngineKind kind : kAllEngines)
    EXPECT_FALSE(backend_info(kind).dense_spectra) << engine_name(kind);
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Unfolded u = circuit::unfold(g);
    for (bool robust : {false, true}) {
      ProbeModelOptions probes;
      probes.glitch_robust = robust;
      const ObservableSet obs = build_observables(g, u, probes);
      const auto dense = build_basis(u, obs, EngineKind::kDIRECT);
      const auto paper = build_basis(u, obs, EngineKind::kMAP);
      ASSERT_EQ(dense->flat.size(), paper->flat.size()) << name;
      for (std::size_t i = 0; i < dense->flat.size(); ++i)
        EXPECT_TRUE(dense->flat[i] == paper->flat[i])
            << name << " robust " << robust << " obs " << i;
      EXPECT_EQ(dense->base_coefficients, paper->base_coefficients) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend registry.
// ---------------------------------------------------------------------------

TEST(Registry, RoundTripsEveryEngine) {
  for (EngineKind kind : kAllEngines) {
    const BackendInfo& info = backend_info(kind);
    EXPECT_EQ(info.kind, kind);
    const BackendInfo* by_name = backend_by_name(info.name);
    ASSERT_NE(by_name, nullptr) << info.name;
    EXPECT_EQ(by_name->kind, kind);
  }
  EXPECT_EQ(backend_by_name("bogus"), nullptr);
  const std::string names = backend_name_list();
  for (const char* expected : {"lil", "map", "mapi", "fujita"})
    EXPECT_NE(names.find(expected), std::string::npos) << expected;
}

TEST(Registry, CapabilityFlagsMatchEngineFamilies) {
  // Scan engines run off numeric spectra alone; ADD engines thaw the frozen
  // forest into a private manager.
  EXPECT_FALSE(backend_info(EngineKind::kLIL).needs_thaw);
  EXPECT_FALSE(backend_info(EngineKind::kMAP).needs_thaw);
  EXPECT_TRUE(backend_info(EngineKind::kMAPI).needs_thaw);
  EXPECT_TRUE(backend_info(EngineKind::kFUJITA).needs_thaw);
  EXPECT_TRUE(backend_info(EngineKind::kLIL).needs_lil);
  EXPECT_FALSE(backend_info(EngineKind::kFUJITA).needs_spectra);
  // What each engine asks the basis to freeze: FUJITA rebuilds its base ADDs
  // from the XOR-subset functions, MAPI pre-warms from the base spectra.
  EXPECT_TRUE(backend_info(EngineKind::kFUJITA).frozen_fns);
  EXPECT_FALSE(backend_info(EngineKind::kFUJITA).frozen_spectra);
  EXPECT_TRUE(backend_info(EngineKind::kMAPI).frozen_spectra);
  EXPECT_FALSE(backend_info(EngineKind::kMAPI).frozen_fns);
  EXPECT_FALSE(backend_info(EngineKind::kLIL).frozen_fns);
  EXPECT_FALSE(backend_info(EngineKind::kMAP).frozen_spectra);
}

// ---------------------------------------------------------------------------
// Row-check region cache: one region per combination signature, every later
// combination with the same signature is a hit — for the scan regions and
// the predicate BDDs alike.
// ---------------------------------------------------------------------------

TEST(RowCheck, RegionCacheCountersAreVisible) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  for (EngineKind engine : kAllEngines) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.engine = engine;
    const VerifyResult r = verify(g, opt);
    EXPECT_GT(r.stats.region_cache.misses, 0u) << engine_name(engine);
    EXPECT_GT(r.stats.region_cache.hits, 0u) << engine_name(engine);
    // Every combination queries the cache exactly once.
    EXPECT_EQ(r.stats.region_cache.hits + r.stats.region_cache.misses,
              r.stats.combinations)
        << engine_name(engine);
  }
}

// ---------------------------------------------------------------------------
// The non-replay verify_prepared overload: every engine honors --jobs over
// the shared basis — scan engines read the numeric spectra, ADD engines
// thaw the frozen forest into worker-private managers.
// ---------------------------------------------------------------------------

TEST(Prepared, ScanEnginesHonorJobsWithoutReplay) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  for (EngineKind engine : {EngineKind::kLIL, EngineKind::kMAP}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.engine = engine;
    opt.jobs = 1;
    const std::string want = fingerprint(verify_prepared(u, obs, opt));
    opt.jobs = 2;
    opt.shard_size = 9;
    const VerifyResult r = verify_prepared(u, obs, opt);
    EXPECT_EQ(fingerprint(r), want) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.jobs, 2) << engine_name(engine);
    EXPECT_TRUE(r.stats.parallel.shared_basis) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.replays, 0u) << engine_name(engine);
    EXPECT_TRUE(r.warnings.empty()) << engine_name(engine);
  }
}

TEST(Prepared, AddEnginesHonorJobsOverSharedBasis) {
  circuit::Gadget g = gadgets::by_name("dom-1");
  circuit::Unfolded u = circuit::unfold(g);
  ObservableSet obs = build_observables(g, u, {});
  for (EngineKind engine : {EngineKind::kMAPI, EngineKind::kFUJITA}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 1;
    opt.engine = engine;
    opt.jobs = 1;
    const VerifyResult s = verify_prepared(u, obs, opt);
    EXPECT_TRUE(s.warnings.empty()) << engine_name(engine);

    opt.jobs = 4;
    opt.shard_size = 3;
    const VerifyResult r = verify_prepared(u, obs, opt);
    EXPECT_TRUE(r.warnings.empty()) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.jobs, 4) << engine_name(engine);
    EXPECT_TRUE(r.stats.parallel.shared_basis) << engine_name(engine);
    EXPECT_EQ(r.stats.parallel.replays, 0u) << engine_name(engine);
    EXPECT_GT(r.stats.frozen_nodes, 0u) << engine_name(engine);
    EXPECT_EQ(fingerprint(r), fingerprint(s)) << engine_name(engine);
  }
}

// ---------------------------------------------------------------------------
// DepTable: runs of consecutive ranks, one mask per entry, ranks implied.
// ---------------------------------------------------------------------------

// The mask of entry (k, rank): bit(rank) | bit(100 + k), so every read-back
// names its own rank and size.
Mask entry_mask(int k, std::uint64_t rank) {
  return Mask::bit(static_cast<int>(rank)) | Mask::bit(100 + k);
}

// One run of `count` entries from `begin`.
std::vector<Mask> run_masks(int k, std::uint64_t begin, std::uint64_t count) {
  std::vector<Mask> masks;
  for (std::uint64_t i = 0; i < count; ++i)
    masks.push_back(entry_mask(k, begin + i));
  return masks;
}

TEST(DepTable, RunsAreKeptInSizeAndRankOrder) {
  DepTable table;
  // Insertion order deliberately not (k, begin) order; a gap at ranks 3..4
  // of class 2.
  table.add_run(2, 5, run_masks(2, 5, 3));
  table.add_run(1, 0, run_masks(1, 0, 4));
  table.add_run(2, 0, run_masks(2, 0, 3));
  table.add_run(1, 4, {});  // no passing combination: nothing recorded
  EXPECT_EQ(table.size(), 10u);
  EXPECT_GE(table.bytes(), 10 * sizeof(Mask));

  std::vector<std::pair<int, std::uint64_t>> seen;
  for (const DepTable::Run& run : table.runs()) {
    EXPECT_EQ(run.end(), run.begin + run.masks.size());
    for (std::uint64_t i = 0; i < run.masks.size(); ++i) {
      EXPECT_EQ(run.masks[i], entry_mask(run.k, run.begin + i));
      seen.emplace_back(run.k, run.begin + i);
    }
  }
  const std::vector<std::pair<int, std::uint64_t>> want = {
      {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 0},
      {2, 1}, {2, 2}, {2, 5}, {2, 6}, {2, 7}};
  EXPECT_EQ(seen, want);
}

TEST(DepTable, CountRanksBelowBoundsEachSizeClass) {
  // A size-k record counts iff its rank lies below bound[k]; sizes past the
  // end of the bound vector count nothing.
  DepTable table;
  const std::vector<std::pair<int, std::vector<std::uint64_t>>> runs = {
      {1, {0, 1}}, {1, {3}}, {2, {1, 2, 3, 4}}, {2, {9}}, {3, {2, 3}}};
  for (const auto& [k, ranks] : runs)
    table.add_run(k, ranks.front(),
                  std::vector<Mask>(ranks.size(), Mask::bit(k)));

  const auto brute = [&](const std::vector<std::uint64_t>& bound) {
    std::size_t count = 0;
    for (const auto& [k, ranks] : runs)
      for (std::uint64_t r : ranks)
        if (static_cast<std::size_t>(k) < bound.size() &&
            r < bound[static_cast<std::size_t>(k)])
          ++count;
    return count;
  };
  for (const std::vector<std::uint64_t>& bound :
       std::vector<std::vector<std::uint64_t>>{
           {},
           {0, 0, 0, 0},
           {0, 4},
           {0, 6, 15},
           {0, 6, 15, 20},
           {0, 1, 3, 10},
           {0, 3, 0, 3}}) {
    EXPECT_EQ(table.count_ranks_below(bound), brute(bound));
  }
  EXPECT_EQ(table.count_ranks_below({0, 4}), 3u);  // ranks 0, 1, 3
  EXPECT_EQ(table.count_ranks_below({0, 6, 15, 20}), table.size());
}

TEST(DepTable, PeakBytesReportedInStats) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  const VerifyResult r = verify(g, opt);
  ASSERT_TRUE(r.secure);
  EXPECT_EQ(r.stats.qinfo_entries, r.stats.combinations);
  EXPECT_GT(r.stats.qinfo_peak_bytes, 0u);
}

}  // namespace
}  // namespace sani::verify
