// Cross-engine agreement for the default engine.  `--engine auto` runs
// DIRECT (flat convolution + one coefficient-check pass per row), and the
// contract is verdict plus witness: DIRECT must agree with the paper's
// engines (LIL, MAP, MAPI, FUJITA) on the verdict and the witness
// observables across the registry, every notion and --jobs {1,2}, and with
// the brute-force oracle wherever it runs (at most 22 inputs).  DIRECT's
// witness coordinate is canonical — the smallest violating mask of the
// first violating row — so it is pinned here too: stable across worker
// counts and incremental replay, a genuine violating coefficient, and the
// same coordinate the region scans (LIL/MAP) report.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "circuit/builder.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "spectral/flat_spectrum.h"
#include "store/cached_verify.h"
#include "store/store.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/bruteforce.h"
#include "verify/checker.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/portfolio.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

constexpr Notion kNotions[] = {Notion::kProbing, Notion::kNI, Notion::kSNI,
                               Notion::kPINI};
constexpr EngineKind kPaperEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                        EngineKind::kMAPI,
                                        EngineKind::kFUJITA};

// Verdict + witness observables.  The witness coordinate is engine-specific
// (MAPI takes any satisfying assignment of the ADD product), so it is
// compared separately where it is pinned.
std::string fingerprint(const VerifyResult& r) {
  std::string fp = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  if (r.counterexample) {
    fp += " |";
    for (const auto& o : r.counterexample->observables) fp += " " + o;
  }
  return fp;
}

VerifyResult run(const circuit::Gadget& g, Notion notion, int order,
                 EngineKind engine, int jobs = 1) {
  VerifyOptions opt;
  opt.notion = notion;
  opt.order = order;
  opt.engine = engine;
  opt.jobs = jobs;
  return verify(g, opt);
}

bool is_row_failure(const VerifyResult& r) {
  return r.counterexample &&
         r.counterexample->reason.find("per-row") != std::string::npos;
}

// The --full gadgets take minutes at design order under the region scans
// (and MAPI on keccak-3); they are covered at order 1 only.
bool design_order_feasible(const std::string& name) {
  return name != "keccak-3" && name != "dom-4";
}

// keccak-2 at design order: LIL/MAP enumerate a 2^#shares region per
// combination (~10 s each); the ADD engines stay in the comparison.
bool region_scan_feasible(const std::string& name, int order) {
  return order == 1 || name != "keccak-2";
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<std::string, Notion>>& info) {
  std::string name = std::get<0>(info.param) + "_" +
                     notion_name(std::get<1>(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// ---------------------------------------------------------------------------
// DIRECT vs the paper's engines: registry x notions x --jobs {1,2}.
// ---------------------------------------------------------------------------

class Agreement
    : public ::testing::TestWithParam<std::tuple<std::string, Notion>> {};

TEST_P(Agreement, DirectMatchesEveryPaperEngine) {
  const auto& [name, notion] = GetParam();
  const circuit::Gadget g = gadgets::by_name(name);
  std::vector<int> orders{1};
  const int design = gadgets::security_level(name);
  if (design > 1 && design_order_feasible(name)) orders.push_back(design);

  for (int order : orders) {
    for (int jobs : {1, 2}) {
      const std::string where = name + " " + notion_name(notion) + " order " +
                                std::to_string(order) + " jobs " +
                                std::to_string(jobs);
      const VerifyResult direct =
          run(g, notion, order, EngineKind::kDIRECT, jobs);
      ASSERT_FALSE(direct.timed_out) << where;
      // auto is DIRECT: same verdict, same witness, same coordinate.
      const VerifyResult dflt = run(g, notion, order, EngineKind::kAuto, jobs);
      EXPECT_EQ(fingerprint(dflt), fingerprint(direct)) << where;
      if (direct.counterexample && dflt.counterexample) {
        EXPECT_EQ(dflt.counterexample->alpha, direct.counterexample->alpha)
            << where;
      }

      for (EngineKind engine : kPaperEngines) {
        const bool region_scan =
            engine == EngineKind::kLIL || engine == EngineKind::kMAP;
        if (region_scan && !region_scan_feasible(name, order)) continue;
        const VerifyResult r = run(g, notion, order, engine, jobs);
        EXPECT_EQ(fingerprint(direct), fingerprint(r))
            << where << " vs " << engine_name(engine);
        // The region scans visit forbidden coordinates in ascending order,
        // so their first hit is DIRECT's canonical witness.
        if (region_scan && direct.counterexample && r.counterexample) {
          EXPECT_EQ(direct.counterexample->alpha, r.counterexample->alpha)
              << where << " vs " << engine_name(engine);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, Agreement,
                         ::testing::Combine(
                             ::testing::ValuesIn(gadgets::all_names()),
                             ::testing::ValuesIn(kNotions)),
                         param_name);

// ---------------------------------------------------------------------------
// DIRECT vs the brute-force oracle, on every registry gadget it can run.
// ---------------------------------------------------------------------------

std::vector<std::string> oracle_gadgets() {
  std::vector<std::string> names;
  for (const std::string& name : gadgets::all_names())
    if (gadgets::by_name(name).netlist.stats().num_inputs <= 22)
      names.push_back(name);
  return names;
}

class OracleAgreement
    : public ::testing::TestWithParam<std::tuple<std::string, Notion>> {};

TEST_P(OracleAgreement, DirectMatchesBruteForce) {
  const auto& [name, notion] = GetParam();
  const circuit::Gadget g = gadgets::by_name(name);
  // The oracle costs 2^#inputs per combination: design order where that
  // stays small, order 1 elsewhere.
  std::vector<int> orders{1};
  const int design = gadgets::security_level(name);
  if (design > 1 && g.netlist.stats().num_inputs <= 11)
    orders.push_back(design);
  for (int order : orders) {
    VerifyOptions opt;
    opt.notion = notion;
    opt.order = order;
    const VerifyResult oracle = verify_bruteforce(g, opt);
    const VerifyResult direct = verify(g, opt);
    EXPECT_EQ(direct.secure, oracle.secure)
        << name << " " << notion_name(notion) << " order " << order;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGadgets, OracleAgreement,
                         ::testing::Combine(
                             ::testing::ValuesIn(oracle_gadgets()),
                             ::testing::ValuesIn(kNotions)),
                         param_name);

// ---------------------------------------------------------------------------
// DIRECT's witness coordinate.
// ---------------------------------------------------------------------------

// Every insecure (gadget, notion) at order 1 with a per-row failure: the
// witness is a nonzero coefficient of the witness combination's spectrum,
// it violates the notion, and no smaller nonzero coefficient does.
TEST(DirectWitness, IsTheSmallestViolatingCoefficient) {
  int checked = 0;
  for (const std::string& name : gadgets::all_names()) {
    if (!design_order_feasible(name)) continue;
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Unfolded u = circuit::unfold(g);
    const ObservableSet obs = build_observables(g, u, {});
    for (Notion notion : kNotions) {
      const VerifyResult r = run(g, notion, 1, EngineKind::kDIRECT);
      if (!is_row_failure(r)) continue;
      const CounterExample& ce = *r.counterexample;

      // One observable per probe in the standard model, so the witness
      // combination has exactly one row: the XOR of its functions.
      RowContext row;
      dd::Bdd x = dd::Bdd::zero(*u.manager);
      for (const std::string& o_name : ce.observables) {
        const auto it =
            std::find_if(obs.items.begin(), obs.items.end(),
                         [&](const Observable& o) { return o.name == o_name; });
        ASSERT_NE(it, obs.items.end()) << o_name;
        ASSERT_EQ(it->fns.size(), 1u);
        x ^= it->fns.front();
        ++row.num_observables;
        if (it->kind == Observable::Kind::kOutput) {
          ++row.num_outputs;
          row.output_indices.insert(it->output_share_index);
        } else {
          ++row.num_internal;
        }
      }
      const Checker checker(u.vars, notion);
      const spectral::FlatSpectrum s = spectral::FlatSpectrum::from_bdd(x);
      EXPECT_NE(s.at(ce.alpha), 0) << name << " " << notion_name(notion);
      EXPECT_TRUE(checker.coefficient_violates(ce.alpha, row))
          << name << " " << notion_name(notion);
      for (const Mask& m : s.masks()) {
        if (!(m < ce.alpha)) break;
        EXPECT_FALSE(checker.coefficient_violates(m, row))
            << name << " " << notion_name(notion) << ": " << m.to_string()
            << " precedes the witness " << ce.alpha.to_string();
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 5);
}

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("sani_agreement_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(DirectWitness, IsStableAcrossJobsAndIncrementalReplay) {
  struct Case {
    const char* gadget;
    Notion notion;
    int order;
  };
  int insecure = 0;
  for (const Case& c : {Case{"ti-1", Notion::kSNI, 1},
                        Case{"isw-2", Notion::kPINI, 2},
                        Case{"dom-2", Notion::kProbing, 3},
                        Case{"keccak-ti", Notion::kNI, 1},
                        Case{"gf16inv-1", Notion::kSNI, 1}}) {
    const circuit::Gadget g = gadgets::by_name(c.gadget);
    VerifyOptions opt;
    opt.notion = c.notion;
    opt.order = c.order;
    const VerifyResult cold = verify(g, opt);
    if (!cold.counterexample) continue;
    ++insecure;
    const Mask alpha = cold.counterexample->alpha;

    opt.jobs = 4;
    const VerifyResult parallel = verify(g, opt);
    ASSERT_TRUE(parallel.counterexample) << c.gadget;
    EXPECT_EQ(fingerprint(parallel), fingerprint(cold)) << c.gadget;
    EXPECT_EQ(parallel.counterexample->alpha, alpha) << c.gadget;

    // First incremental run scans cold and saves the summary; the second
    // replays every verdict from it.
    opt.jobs = 1;
    opt.incremental = true;
    TempDir dir;
    store::ArtifactStore st({dir.str(), 0});
    for (int pass = 0; pass < 2; ++pass) {
      store::StoreOutcome out;
      const VerifyResult r = store::verify_with_store(g, opt, st, &out);
      ASSERT_TRUE(r.counterexample) << c.gadget << " pass " << pass;
      EXPECT_EQ(fingerprint(r), fingerprint(cold)) << c.gadget;
      EXPECT_EQ(r.counterexample->alpha, alpha) << c.gadget << " pass "
                                                << pass;
      if (pass == 1) {
        EXPECT_TRUE(out.summary_hit) << c.gadget;
      }
    }
  }
  EXPECT_GE(insecure, 3);
}

// ---------------------------------------------------------------------------
// Engine resolution and reporting.
// ---------------------------------------------------------------------------

TEST(DirectEngine, AutoResolvesToDirectEverywhere) {
  EXPECT_EQ(VerifyOptions{}.engine, EngineKind::kAuto);
  EXPECT_EQ(resolve_engine(EngineKind::kAuto), EngineKind::kDIRECT);
  for (EngineKind e : kPaperEngines) EXPECT_EQ(resolve_engine(e), e);
  ASSERT_NE(backend_by_name("direct"), nullptr);
  EXPECT_EQ(backend_by_name("direct")->kind, EngineKind::kDIRECT);
  EXPECT_EQ(backend_by_name("auto"), nullptr);
  // auto and direct share one artifact: same needs, same store key.
  VerifyOptions a, d;
  d.engine = EngineKind::kDIRECT;
  const circuit::Gadget g = gadgets::by_name("dom-1");
  EXPECT_EQ(store::artifact_key(g, a), store::artifact_key(g, d));
}

TEST(DirectEngine, NeedsNoManagerRegionOrFrozenForest) {
  const BackendInfo& info = backend_info(EngineKind::kDIRECT);
  EXPECT_FALSE(info.needs_region);
  EXPECT_FALSE(info.needs_thaw);
  EXPECT_FALSE(info.needs_lil);
  EXPECT_FALSE(info.frozen_fns);
  EXPECT_FALSE(info.frozen_spectra);
  for (int jobs : {1, 2}) {
    const VerifyResult r = run(gadgets::by_name("keccak-2"), Notion::kSNI, 2,
                               EngineKind::kAuto, jobs);
    EXPECT_TRUE(r.secure);
    EXPECT_EQ(r.stats.dd_cache_bits, 0);
    EXPECT_EQ(r.stats.dd_cache_hits + r.stats.dd_cache_misses, 0u);
    EXPECT_EQ(r.stats.frozen_nodes, 0u);
    EXPECT_EQ(r.stats.region_cache.hits + r.stats.region_cache.misses, 0u);
  }
}

TEST(DirectEngine, ReportsNameDirectUnderAutoAndDirect) {
  const circuit::Gadget g = gadgets::by_name("ti-1");
  std::vector<std::string> json;
  for (EngineKind e : {EngineKind::kAuto, EngineKind::kDIRECT}) {
    VerifyOptions opt;
    opt.engine = e;
    opt.deterministic_report = true;
    const VerifyResult r = verify(g, opt);
    ASSERT_FALSE(r.secure);
    const std::string sum = summarize("ti-1", opt, r, 1.0);
    EXPECT_NE(sum.find("(engine DIRECT,"), std::string::npos) << sum;
    EXPECT_EQ(sum.find("auto"), std::string::npos) << sum;
    const std::string text =
        detailed_report(g, circuit::unfold(g).vars, opt, r);
    EXPECT_NE(text.find("engine: DIRECT\n"), std::string::npos) << text;
    json.push_back(json_report("ti-1", opt, r, 1.0));
    EXPECT_NE(json.back().find("\"engine\":\"DIRECT\""), std::string::npos);
    EXPECT_EQ(json.back().find("portfolio"), std::string::npos);
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(DirectEngine, UnfoldTableIsSizedFromTheNetlistWithinTheCeiling) {
  for (const char* name : {"isw-1", "keccak-2"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    for (int ceiling : {10, 14, 18, 24}) {
      const int bits = suggest_unfold_cache_bits(g, ceiling);
      EXPECT_GE(bits, 10) << name;
      EXPECT_LE(bits, std::max(10, ceiling)) << name;
    }
  }
  EXPECT_LT(suggest_unfold_cache_bits(gadgets::by_name("isw-1"), 18), 18);
}

// ---------------------------------------------------------------------------
// DIRECT lifts the region scans' 40-position ForbiddenRegion cap.
// ---------------------------------------------------------------------------

// z = a ^ b share-wise over 21 shares: 42 share coordinates, no randoms.
// Every output share reveals one share of each input with no internal
// probe placed, so the gadget is not 1-SNI.
circuit::Gadget wide_xor() {
  circuit::GadgetBuilder b("wide_xor");
  const std::vector<circuit::WireId> a = b.secret("a", 21);
  const std::vector<circuit::WireId> c = b.secret("b", 21);
  std::vector<circuit::WireId> z;
  for (int i = 0; i < 21; ++i) z.push_back(b.xor_(a[i], c[i]));
  b.output_group("z", z);
  return b.build();
}

TEST(DirectEngine, LiftsTheForbiddenRegionCap) {
  const circuit::Gadget g = wide_xor();
  for (EngineKind e : {EngineKind::kLIL, EngineKind::kMAP})
    EXPECT_THROW(run(g, Notion::kSNI, 1, e), std::invalid_argument)
        << engine_name(e);
  const VerifyResult direct = run(g, Notion::kSNI, 1, EngineKind::kDIRECT);
  const VerifyResult mapi = run(g, Notion::kSNI, 1, EngineKind::kMAPI);
  EXPECT_FALSE(direct.secure);
  EXPECT_FALSE(mapi.secure);
  EXPECT_EQ(fingerprint(direct), fingerprint(mapi));
  ASSERT_TRUE(direct.counterexample);
  EXPECT_TRUE(is_row_failure(direct));
}

}  // namespace
}  // namespace sani::verify
