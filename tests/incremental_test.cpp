// The incremental correctness gate: diff-aware re-verification must be
// invisible in every output byte.  For each registry gadget, resubmitting
// after a single-gate edit has to produce the same verdict, the same
// witness and a byte-identical deterministic report as a cold full scan of
// the edited gadget.  A function-preserving edit (a fan-in swap) and an
// unchanged resubmission re-check nothing; a function-changing one (an AND
// rewired, an XOR complemented) re-checks some combinations and replays the
// rest.  Plus the plan
// builder's guard rails, summary serialization round-trips and the
// cross-engine reuse the engine-invariant dependency masks license.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "circuit/builder.h"
#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "sched/shard.h"
#include "store/cached_verify.h"
#include "store/serial.h"
#include "store/store.h"
#include "util/combinations.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/incremental.h"
#include "verify/observables.h"
#include "verify/report.h"

namespace sani::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("sani_incr_test_" + tag + "_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter++));
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string fingerprint(const verify::VerifyResult& r) {
  std::string fp = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  if (r.counterexample) {
    fp += " |";
    for (const auto& o : r.counterexample->observables) fp += " " + o;
    fp += " | alpha=" + r.counterexample->alpha.to_string();
    fp += " | " + r.counterexample->reason;
  }
  return fp;
}

// Builds a Basis the way the store's cold path does (cone index included).
std::shared_ptr<const verify::Basis> build_basis_for(
    const circuit::Gadget& g, const verify::VerifyOptions& opt) {
  return build_stored_basis(g, opt, verify::basis_needs(opt.engine));
}

// ---------------------------------------------------------------------------
// The acceptance sweep: every registry gadget, edit-resubmit == cold.
// ---------------------------------------------------------------------------

// Registry gadgets with no AND gate for circuit::with_first_and_rewired — the
// threshold implementations use no randoms, the refresh gadgets no AND —
// which the sweep edits by fan-in swap only.
const std::set<std::string> kNoRewirableAnd = {"keccak-ti", "refresh-3",
                                               "sni-refresh-3", "ti-1"};

/// The edits a resubmission test runs: a fan-in swap, which keeps every
/// function, and, where the gadget has the gate, two that change some: an
/// AND rewired onto a random, which usually breaks the gadget, and an XOR
/// complemented, which keeps its verdict and witness.
struct Edit {
  std::string kind;
  circuit::Gadget gadget;
  bool changes_functions;
  bool keeps_verdict;
};

std::vector<Edit> edits_of(const circuit::Gadget& g) {
  std::vector<Edit> out;
  const circuit::WireId swap = circuit::first_swappable_gate(g);
  out.push_back(
      {"fan-ins swapped", circuit::with_swapped_fanins(g, swap), false, true});
  if (std::optional<circuit::Gadget> rewired =
          circuit::with_first_and_rewired(g))
    out.push_back({"AND rewired", std::move(*rewired), true, false});
  if (std::optional<circuit::Gadget> complemented =
          circuit::with_xor_complemented(g))
    out.push_back({"XOR complemented", std::move(*complemented), true, true});
  return out;
}

/// The serialized summary the family head of `g` names.
std::string head_summary(const circuit::Gadget& g,
                         const verify::VerifyOptions& opt,
                         ArtifactStore& store) {
  const auto head = store.family_head(summary_family_key(g, opt));
  if (!head) return "";
  const std::shared_ptr<const verify::ConeSummary> s =
      store.load_summary(*head);
  return s ? serialize_summary(*s) : "";
}

/// What a cold scan of `g` in a fresh store reports and records.
struct ColdRun {
  std::string report;   // deterministic JSON report
  std::string summary;  // serialized cone summary
};

ColdRun cold_run(const std::string& name, const circuit::Gadget& g,
                 const verify::VerifyOptions& opt) {
  TempDir dir("cold_ref");
  ArtifactStore store({dir.str(), 0});
  StoreOutcome o;
  const verify::VerifyResult r = verify_with_store(g, opt, store, &o);
  EXPECT_FALSE(o.summary_hit) << name;
  return {verify::json_report(name, opt, r, 1.0), head_summary(g, opt, store)};
}

/// A swap must re-check nothing; a function-changing edit must re-check
/// something.
void expect_rechecked(const Edit& edit, const verify::VerifyResult& r) {
  if (edit.changes_functions) {
    EXPECT_GT(r.stats.incremental.combinations_rechecked, 0u);
  } else {
    EXPECT_EQ(r.stats.incremental.combinations_rechecked, 0u);
  }
}

/// One case of the sweep below: `edit` of registry gadget `name`,
/// resubmitted on `jobs` workers after a seed run of `g`.
void resubmit_matches_cold(const std::string& name, const circuit::Gadget& g,
                           const Edit& edit, int jobs) {
  const circuit::Gadget& edited = edit.gadget;

  verify::VerifyOptions opt;
  opt.order = std::min(2, gadgets::security_level(name));
  opt.deterministic_report = true;
  opt.incremental = true;
  opt.jobs = jobs;

  // Cold reference: the edited gadget scanned from nothing.
  verify::VerifyResult r_cold;
  {
    TempDir cold_dir("cold");
    ArtifactStore cold_store({cold_dir.str(), 0});
    StoreOutcome o;
    r_cold = verify_with_store(edited, opt, cold_store, &o);
    EXPECT_FALSE(o.summary_hit) << name;
    EXPECT_TRUE(o.summary_saved) << name;
    EXPECT_EQ(r_cold.stats.incremental.combinations_skipped, 0u) << name;
  }
  ASSERT_FALSE(r_cold.timed_out) << name;

  TempDir dir("sweep");
  ArtifactStore store({dir.str(), 0});

  // Seed run on the original gadget.
  StoreOutcome seed;
  const verify::VerifyResult r_seed = verify_with_store(g, opt, store, &seed);
  ASSERT_FALSE(r_seed.timed_out) << name;
  EXPECT_FALSE(seed.summary_hit) << name;
  EXPECT_TRUE(seed.summary_saved) << name;
  // A swap and a complement relabel each observable's values bijectively:
  // the edited gadget's cold run reports the original's verdict and
  // witness.
  if (edit.keeps_verdict) {
    EXPECT_EQ(fingerprint(r_cold), fingerprint(r_seed)) << name;
  }

  // Edited resubmission: seeded by the prior summary.
  StoreOutcome warm;
  const verify::VerifyResult r_inc =
      verify_with_store(edited, opt, store, &warm);
  EXPECT_FALSE(warm.hit) << name;  // the edit re-keys the Basis artifact
  EXPECT_TRUE(warm.summary_hit) << name;

  // Byte-identical outputs: verdict, witness, deterministic reports.
  EXPECT_EQ(fingerprint(r_inc), fingerprint(r_cold)) << name;
  EXPECT_EQ(verify::summarize(name, opt, r_inc, 2.0),
            verify::summarize(name, opt, r_cold, 1.0))
      << name;
  EXPECT_EQ(verify::json_report(name, opt, r_inc, 2.0),
            verify::json_report(name, opt, r_cold, 1.0))
      << name;

  // Less work: the single-gate edit dirties some cones, not all.  On a
  // secure scan (full enumeration) the saving is strict.  An insecure one
  // early-exits after a handful of combinations, where the dirty set can
  // legitimately cover them all.  Every visited combination is either
  // replayed or re-checked; an insecure report counts the combinations
  // ordered up to the witness, while the workers may visit a few more (of
  // other sizes) before they stop, so there the count to match is the
  // per-worker one, which only a --jobs N report carries.
  const verify::IncrementalStats& is = r_inc.stats.incremental;
  EXPECT_TRUE(is.active) << name;
  EXPECT_GT(is.cones_reused, 0u) << name;
  if (edit.changes_functions) {
    EXPECT_LT(is.cones_reused, is.cones_total) << name;
    EXPECT_TRUE(warm.summary_saved) << name;
    if (r_cold.secure) {
      EXPECT_GT(is.combinations_rechecked, 0u) << name;
    }
  } else {
    EXPECT_EQ(is.cones_reused, is.cones_total) << name;
  }
  // A swap replays every verdict the seeding run recorded, so the head's
  // summary already holds them all.  Two workers on an insecure gadget
  // may visit a combination the seeding run never reached (see below).
  if (!edit.changes_functions && (r_cold.secure || jobs == 1)) {
    EXPECT_EQ(is.combinations_rechecked, 0u) << name;
    EXPECT_FALSE(warm.summary_saved) << name;
  }
  const std::uint64_t visited =
      is.combinations_skipped + is.combinations_rechecked;
  if (r_cold.secure) {
    EXPECT_LT(is.combinations_rechecked, r_cold.stats.combinations) << name;
    EXPECT_EQ(visited, r_cold.stats.combinations) << name;
  } else if (jobs > 1) {
    std::uint64_t by_workers = 0;
    for (const verify::WorkerStats& w : r_inc.stats.parallel.workers)
      by_workers += w.combinations;
    EXPECT_LE(is.combinations_rechecked, by_workers) << name;
    EXPECT_EQ(visited, by_workers) << name;
  } else {
    EXPECT_GE(visited, r_cold.stats.combinations) << name;
  }

  // Unchanged resubmission: nothing left to re-check.  Two workers on an
  // insecure gadget are the exception: which combinations they visit
  // before stopping depends on scheduling, and one the previous run
  // never reached is re-checked.
  StoreOutcome again;
  const verify::VerifyResult r_again =
      verify_with_store(edited, opt, store, &again);
  EXPECT_TRUE(again.hit) << name;  // Basis artifact warm this time
  EXPECT_TRUE(again.summary_hit) << name;
  if (r_cold.secure || jobs == 1) {
    EXPECT_EQ(r_again.stats.incremental.combinations_rechecked, 0u) << name;
  }
  EXPECT_EQ(r_again.stats.incremental.cones_reused,
            r_again.stats.incremental.cones_total)
      << name;
  EXPECT_EQ(verify::json_report(name, opt, r_again, 3.0),
            verify::json_report(name, opt, r_cold, 1.0))
      << name;
}

TEST(Incremental, EditResubmitMatchesColdAcrossTheRegistry) {
  // Three edits: a fan-in swap changes no function, so it keeps every cone
  // digest and replays every verdict; the AND rewiring and the XOR
  // complement change some cones, which must be re-checked (a stale replay
  // of an edited cone shows only there).  The complement keeps the
  // gadget's verdict, so on a secure gadget its scan is a full enumeration
  // that mixes re-checks and replays.  One worker on the calling thread,
  // and two, whose report carries the per-worker visit counts.
  for (const int jobs : {1, 2})
    for (const std::string& name : gadgets::all_names()) {
      const circuit::Gadget g = gadgets::by_name(name);
      const std::vector<Edit> edits = edits_of(g);
      EXPECT_EQ(edits.size(), kNoRewirableAnd.count(name) == 0 ? 3u : 2u)
          << name;
      for (const Edit& edit : edits) {
        SCOPED_TRACE(edit.kind + ", jobs " + std::to_string(jobs));
        resubmit_matches_cold(name, g, edit, jobs);
      }
    }
}

TEST(Incremental, InsecureWitnessReplaysByteIdentically) {
  // Insecure fixtures: the recorded failure must replay exactly, including
  // the witness the report prints.
  struct Case {
    const char* gadget;
    verify::Notion notion;
  };
  for (const Case& c : {Case{"ti-1", verify::Notion::kSNI},
                        Case{"trichina-1", verify::Notion::kPINI},
                        Case{"isw-1", verify::Notion::kPINI}}) {
    const circuit::Gadget g = gadgets::by_name(c.gadget);
    verify::VerifyOptions opt;
    opt.notion = c.notion;
    // Full design order: some fixtures (composition) only break there.
    opt.order = gadgets::security_level(c.gadget);
    opt.deterministic_report = true;
    opt.incremental = true;

    TempDir dir("witness");
    ArtifactStore store({dir.str(), 0});
    StoreOutcome cold, warm;
    const verify::VerifyResult r_cold = verify_with_store(g, opt, store, &cold);
    const verify::VerifyResult r_warm = verify_with_store(g, opt, store, &warm);
    ASSERT_FALSE(r_cold.secure) << c.gadget;
    EXPECT_TRUE(warm.summary_hit) << c.gadget;
    EXPECT_EQ(r_warm.stats.incremental.combinations_rechecked, 0u) << c.gadget;
    EXPECT_EQ(fingerprint(r_warm), fingerprint(r_cold)) << c.gadget;
    ASSERT_TRUE(r_warm.counterexample.has_value()) << c.gadget;
    EXPECT_EQ(verify::json_report(c.gadget, opt, r_warm, 2.0),
              verify::json_report(c.gadget, opt, r_cold, 1.0))
        << c.gadget;

    // Each edit, seeded by the original's summary, against a cold run of
    // the edited text.
    for (const Edit& edit : edits_of(g)) {
      SCOPED_TRACE(std::string(c.gadget) + ", " + edit.kind);
      TempDir edit_dir("witness_edit");
      ArtifactStore edit_store({edit_dir.str(), 0});
      verify_with_store(g, opt, edit_store, nullptr);
      const verify::VerifyResult r_edit =
          verify_with_store(edit.gadget, opt, edit_store, nullptr);
      const ColdRun edit_cold = cold_run(c.gadget, edit.gadget, opt);
      EXPECT_FALSE(r_edit.secure);
      EXPECT_TRUE(r_edit.counterexample.has_value());
      expect_rechecked(edit, r_edit);
      EXPECT_EQ(verify::json_report(c.gadget, opt, r_edit, 1.0),
                edit_cold.report);
    }
  }
}

TEST(Incremental, ParallelScanReplaysAndMatchesCold) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  for (const Edit& edit : edits_of(g)) {
    SCOPED_TRACE(edit.kind);
    const circuit::Gadget& edited = edit.gadget;

    verify::VerifyOptions opt;
    opt.order = 2;
    opt.deterministic_report = true;
    opt.incremental = true;
    // jobs shapes the report's parallel section even deterministically, so
    // the byte-identity contract compares equal-jobs runs: a 4-way cold scan
    // against a 4-way incremental one (seeded by a serial run).
    opt.jobs = 4;

    verify::VerifyResult r_cold;
    {
      TempDir cold_dir("par_cold");
      ArtifactStore cold_store({cold_dir.str(), 0});
      r_cold = verify_with_store(edited, opt, cold_store, nullptr);
    }

    TempDir dir("par");
    ArtifactStore store({dir.str(), 0});
    {
      verify::VerifyOptions seed_opt = opt;
      seed_opt.jobs = 1;
      verify_with_store(g, seed_opt, store, nullptr);
    }

    StoreOutcome warm;
    const verify::VerifyResult r_inc =
        verify_with_store(edited, opt, store, &warm);
    EXPECT_TRUE(warm.summary_hit);
    EXPECT_GT(r_inc.stats.incremental.combinations_skipped, 0u);
    // The rewired dom-2 is insecure: four workers visit combinations past
    // the witness, which the cold count does not include.
    if (r_cold.secure) {
      EXPECT_LT(r_inc.stats.incremental.combinations_rechecked,
                r_cold.stats.combinations);
    }
    expect_rechecked(edit, r_inc);
    EXPECT_EQ(fingerprint(r_inc), fingerprint(r_cold));
    // jobs shapes parallel stats, which the deterministic report strips — the
    // cross-temperature byte-identity must hold across the jobs split too.
    EXPECT_EQ(verify::json_report("dom-2", opt, r_inc, 2.0),
              verify::json_report("dom-2", opt, r_cold, 1.0));
  }
}

TEST(Incremental, SummariesTransferAcrossEngines) {
  // Dependency masks are engine-invariant and the cone index hashes
  // functions, not representations: every engine's Basis carries the same
  // digests, so a summary written by one engine seeds a scan by another
  // (the Basis artifact misses — different BasisNeeds — but the family
  // head hits) and replays every verdict.
  const circuit::Gadget g = gadgets::by_name("dom-2");
  TempDir dir("xengine");
  ArtifactStore store({dir.str(), 0});

  verify::VerifyOptions opt;
  opt.order = 2;
  opt.incremental = true;
  std::shared_ptr<const verify::Basis> first;
  for (const verify::EngineKind engine :
       {verify::EngineKind::kDIRECT, verify::EngineKind::kMAPI,
        verify::EngineKind::kFUJITA}) {
    SCOPED_TRACE(verify::engine_name(engine));
    opt.engine = engine;
    StoreOutcome out;
    const verify::VerifyResult r = verify_with_store(g, opt, store, &out);
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(out.summary_hit, first != nullptr);
    if (first) {
      EXPECT_EQ(r.stats.incremental.combinations_rechecked, 0u);
    }

    const std::shared_ptr<const verify::Basis> basis =
        store.load_basis(out.key);
    ASSERT_NE(basis, nullptr);
    ASSERT_TRUE(basis->cones.available);
    if (!first) {
      first = basis;
      continue;
    }
    EXPECT_EQ(basis->cones.varmap, first->cones.varmap);
    EXPECT_EQ(basis->cones.digests, first->cones.digests);
  }
}

TEST(Incremental, LargestFirstOrderReplaysToo) {
  const circuit::Gadget g = gadgets::by_name("isw-2");
  TempDir dir("lf");
  ArtifactStore store({dir.str(), 0});

  verify::VerifyOptions opt;
  opt.order = 2;
  opt.search_order = verify::SearchOrder::kLargestFirst;
  opt.deterministic_report = true;
  opt.incremental = true;

  const verify::VerifyResult r_cold = verify_with_store(g, opt, store, nullptr);
  StoreOutcome warm;
  const verify::VerifyResult r_warm = verify_with_store(g, opt, store, &warm);
  EXPECT_TRUE(warm.summary_hit);
  EXPECT_EQ(r_warm.stats.incremental.combinations_rechecked, 0u);
  EXPECT_EQ(verify::json_report("isw-2", opt, r_warm, 2.0),
            verify::json_report("isw-2", opt, r_cold, 1.0));
}

// ---------------------------------------------------------------------------
// Plan guard rails
// ---------------------------------------------------------------------------

class PlanGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gadget_ = std::make_unique<circuit::Gadget>(gadgets::by_name("dom-1"));
    opt_.order = 1;
    opt_.incremental = true;
    dir_ = std::make_unique<TempDir>("guard");
    store_ = std::make_unique<ArtifactStore>(
        ArtifactStore::Options{dir_->str(), 0});
    verify_with_store(*gadget_, opt_, *store_, nullptr);
    const auto head = store_->family_head(summary_family_key(*gadget_, opt_));
    ASSERT_TRUE(head.has_value());
    summary_ = store_->load_summary(*head);
    ASSERT_NE(summary_, nullptr);
    basis_ = build_basis_for(*gadget_, opt_);
    ASSERT_TRUE(basis_->cones.available);
  }

  std::unique_ptr<circuit::Gadget> gadget_;
  verify::VerifyOptions opt_;
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<ArtifactStore> store_;
  std::shared_ptr<const verify::ConeSummary> summary_;
  std::shared_ptr<const verify::Basis> basis_;
};

TEST_F(PlanGuardTest, AcceptsTheMatchingRun) {
  EXPECT_TRUE(
      verify::IncrementalPlan::build(*basis_, summary_, opt_).has_value());
}

TEST_F(PlanGuardTest, RejectsSemanticMismatches) {
  {
    verify::VerifyOptions o = opt_;
    o.notion = verify::Notion::kNI;
    EXPECT_FALSE(verify::IncrementalPlan::build(*basis_, summary_, o));
  }
  {
    verify::VerifyOptions o = opt_;
    o.joint_share_count = true;
    EXPECT_FALSE(verify::IncrementalPlan::build(*basis_, summary_, o));
  }
  {
    // A higher-order run IS seedable: sizes the summary covers replay,
    // sizes beyond its order have no run and are checked.
    verify::VerifyOptions o = opt_;
    o.order = opt_.order + 1;
    const auto plan = verify::IncrementalPlan::build(*basis_, summary_, o);
    ASSERT_TRUE(plan.has_value());
    std::vector<int> scratch;
    const std::vector<int> small = {0};
    const std::vector<int> big = {0, 1};
    EXPECT_EQ(plan->step(small, 0, 1, scratch).kind,
              verify::IncrementalPlan::Step::Kind::kPasses);
    EXPECT_EQ(plan->step(big, 0, 1, scratch).kind,
              verify::IncrementalPlan::Step::Kind::kCheck);
  }
}

TEST_F(PlanGuardTest, RejectsVarmapMismatch) {
  // A different variable order binds roles to different dd variables; the
  // varmap fingerprint must veto the replay.
  verify::VerifyOptions o = opt_;
  o.var_order = circuit::VarOrder::kRandomsFirst;
  const std::shared_ptr<const verify::Basis> other =
      build_basis_for(*gadget_, o);
  ASSERT_TRUE(other->cones.available);
  EXPECT_FALSE(verify::IncrementalPlan::build(*other, summary_, o));
}

TEST_F(PlanGuardTest, RejectsBasisWithoutConeIndex) {
  verify::Basis stripped = *basis_;
  stripped.cones = verify::ConeIndex{};
  EXPECT_FALSE(verify::IncrementalPlan::build(stripped, summary_, opt_));
}

// ---------------------------------------------------------------------------
// Summary serialization
// ---------------------------------------------------------------------------

/// Seeds `store` with one incremental run of `g` and returns the image of
/// the summary its family head names ("" when none).
std::string seeded_image(const circuit::Gadget& g,
                         const verify::VerifyOptions& opt,
                         ArtifactStore& store) {
  verify_with_store(g, opt, store, nullptr);
  const auto head = store.family_head(summary_family_key(g, opt));
  if (!head) return "";
  return store.get(*head).value_or("");
}

TEST(SummarySerial, RoundTripPreservesEveryField) {
  const circuit::Gadget g = gadgets::by_name("ti-1");
  verify::VerifyOptions opt;
  opt.notion = verify::Notion::kSNI;  // insecure: a run ends in a failure
  opt.order = 1;
  opt.incremental = true;

  TempDir dir("serial");
  ArtifactStore store({dir.str(), 0});
  const std::shared_ptr<const verify::ConeSummary> s =
      deserialize_summary(seeded_image(g, opt, store));
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(s->runs.empty());
  EXPECT_TRUE(s->runs.back().failed);

  const std::string image = serialize_summary(*s);
  // Canonical bytes: re-serializing is bit-identical.
  EXPECT_EQ(image, serialize_summary(*s));
  const std::shared_ptr<const verify::ConeSummary> back =
      deserialize_summary(image);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->notion, s->notion);
  EXPECT_EQ(back->glitch_robust, s->glitch_robust);
  EXPECT_EQ(back->joint_share_count, s->joint_share_count);
  EXPECT_EQ(back->union_check, s->union_check);
  EXPECT_EQ(back->order, s->order);
  EXPECT_EQ(back->varmap, s->varmap);
  EXPECT_EQ(back->digests, s->digests);
  EXPECT_EQ(back->union_verdict.state, s->union_verdict.state);
  EXPECT_EQ(back->union_verdict.closure_peak_bytes,
            s->union_verdict.closure_peak_bytes);
  ASSERT_EQ(back->runs.size(), s->runs.size());
  for (std::size_t i = 0; i < s->runs.size(); ++i) {
    const verify::ConeSummary::Run& a = back->runs[i];
    const verify::ConeSummary::Run& b = s->runs[i];
    EXPECT_EQ(a.k, b.k) << i;
    EXPECT_EQ(a.begin, b.begin) << i;
    EXPECT_EQ(a.end, b.end) << i;
    EXPECT_EQ(a.failed, b.failed) << i;
    EXPECT_TRUE(a.alpha == b.alpha) << i;
    EXPECT_EQ(a.reason, b.reason) << i;
    EXPECT_TRUE(a.masks == b.masks) << i;
  }
}

TEST(SummarySerial, RoundTripKeepsOneMaskPerCombination) {
  // A secure order-2 scan with several secrets: every passing combination's
  // one share-space mask lands in the runs, one run per size class, and
  // survives the round trip mask for mask.
  const circuit::Gadget g = gadgets::by_name("dom-2");
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.incremental = true;

  TempDir dir("v2");
  ArtifactStore store({dir.str(), 0});
  const verify::VerifyResult r = verify_with_store(g, opt, store, nullptr);
  ASSERT_TRUE(r.secure);
  const auto head = store.family_head(summary_family_key(g, opt));
  ASSERT_TRUE(head.has_value());
  const auto image = store.get(*head);
  ASSERT_TRUE(image.has_value());
  ASSERT_GE(image->size(), 12u);
  EXPECT_EQ(image->compare(0, 8, std::string(kSummaryMagic, 8)), 0);
  EXPECT_EQ(static_cast<std::uint8_t>((*image)[8]), kSummaryFormatVersion);
  EXPECT_EQ(kSummaryFormatVersion, 6u);

  const std::shared_ptr<const verify::ConeSummary> s =
      deserialize_summary(*image);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->runs.size(), 2u);
  std::uint64_t masks = 0;
  for (const verify::ConeSummary::Run& run : s->runs) {
    EXPECT_FALSE(run.failed);
    EXPECT_EQ(run.masks.size(), run.end - run.begin);
    masks += run.masks.size();
  }
  EXPECT_EQ(masks, r.stats.combinations);
  EXPECT_EQ(serialize_summary(*s), *image);
}

// `s` in the layout an old writer produced: per-size checked and passed
// bitmaps and a (k, rank) failure list ahead of the dependency masks.  v4
// and v5 (v5's layout, v4's digests structural) put the union verdict
// next, then (k, begin, count) run headers and one mask dictionary over
// the runs' masks; v3 had no union verdict and stored each run's masks
// uncoded; v2 stored S masks per combination behind a u32 secret count
// after the order; v1 one (k, rank, S, masks) entry per combination.
std::string old_summary_image(const verify::ConeSummary& s,
                              const std::vector<Mask>& secret_vars,
                              std::uint32_t version) {
  const std::size_t S = secret_vars.size();
  const int n = static_cast<int>(s.digests.size());
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(s.notion));
  w.u8(s.glitch_robust ? 1 : 0);
  w.u8(s.joint_share_count ? 1 : 0);
  w.u8(s.union_check ? 1 : 0);
  w.i32(s.order);
  if (version <= 2) w.u32(static_cast<std::uint32_t>(S));
  const auto digest = [&](const circuit::ConeDigest& d) {
    for (const std::uint8_t b : d.bytes) w.u8(b);
  };
  digest(s.varmap);
  w.u64(s.digests.size());
  for (const circuit::ConeDigest& d : s.digests) digest(d);
  w.u64(static_cast<std::uint64_t>(s.order));
  for (int k = 1; k <= s.order; ++k) {
    const std::uint64_t ranks = binomial(n, k);
    std::vector<std::uint64_t> checked((ranks + 63) / 64), passed(checked);
    for (const verify::ConeSummary::Run& run : s.runs) {
      if (run.k != k) continue;
      for (std::uint64_t r = run.begin; r < run.end; ++r) {
        checked[r / 64] |= std::uint64_t{1} << (r % 64);
        if (!run.failed || r + 1 < run.end)
          passed[r / 64] |= std::uint64_t{1} << (r % 64);
      }
    }
    w.u8(1);
    w.u64(ranks);
    for (const std::uint64_t word : checked) w.u64(word);
    for (const std::uint64_t word : passed) w.u64(word);
  }
  std::vector<const verify::ConeSummary::Run*> failed, deps;
  std::uint64_t entries = 0;
  for (const verify::ConeSummary::Run& run : s.runs) {
    if (run.failed) failed.push_back(&run);
    if (!run.masks.empty()) deps.push_back(&run);
    entries += run.masks.size();
  }
  w.u64(failed.size());
  for (const verify::ConeSummary::Run* run : failed) {
    w.i32(run->k);
    w.u64(run->end - 1);
    write_mask(w, run->alpha);
    w.str(run->reason);
  }
  if (version >= 4) {
    w.u8(static_cast<std::uint8_t>(s.union_verdict.state));
    w.u64(s.union_verdict.closure_peak_bytes);
  }
  w.u64(version == 1 ? entries : deps.size());
  MaskDictionaryWriter coded;
  for (const verify::ConeSummary::Run* run : deps) {
    if (version >= 2) {
      w.i32(run->k);
      w.u64(run->begin);
      w.u64(run->masks.size());
    }
    if (version >= 4) {
      coded.add(run->masks.data(), run->masks.size());
      continue;
    }
    if (version == 3) {
      w.masks(run->masks.data(), run->masks.size());
      continue;
    }
    if (version == 2) w.u64(run->masks.size() * S);
    for (std::uint64_t i = 0; i < run->masks.size(); ++i) {
      if (version == 1) {
        w.i32(run->k);
        w.u64(run->begin + i);
        w.u64(S);
      }
      for (const Mask& group : secret_vars)
        write_mask(w, run->masks[i] & group);
    }
  }
  if (version >= 4) coded.write(w);
  return frame(kSummaryMagic, version, w.bytes());
}

TEST(Store, OldSummaryFormatsLoadAsQuarantinedMisses) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.order = 1;
  opt.incremental = true;
  TempDir dir("v1_summary");
  ArtifactStore store({dir.str(), 0});
  const std::shared_ptr<const verify::ConeSummary> s =
      deserialize_summary(seeded_image(g, opt, store));
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(s->runs.empty());
  const std::vector<Mask> secret_vars =
      build_basis_for(g, opt)->vars.secret_vars;

  // Every old format: v1 (one entry per combination), v2 (runs of one mask
  // per secret), v3 (runs of one uncoded mask per combination, no union
  // verdict), v4 (structural cone digests) and v5 (bitmaps, failure list
  // and per-shard dependency runs).
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u}) {
    const std::string old = old_summary_image(*s, secret_vars, version);
    const std::string key(64, static_cast<char>('a' + version));
    ASSERT_TRUE(store.put(key, old));
    const ArtifactStore::Stats before = store.stats();
    EXPECT_THROW(deserialize_summary(old), SerializationError) << version;
    EXPECT_EQ(store.load_summary(key), nullptr) << version;
    EXPECT_EQ(store.stats().hits, before.hits) << version;
    EXPECT_EQ(store.stats().quarantined, before.quarantined + 1) << version;
    EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "quarantine" / key))
        << version;
  }
  // The resubmission seeds from nothing old and still verifies.
  StoreOutcome out;
  EXPECT_TRUE(verify_with_store(g, opt, store, &out).secure);
}

TEST(SummarySerial, CorruptSummaryQuarantinesAsAMiss) {

  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.order = 1;
  opt.incremental = true;

  TempDir dir("corrupt");
  {
    ArtifactStore store({dir.str(), 0});
    verify_with_store(g, opt, store, nullptr);
    const auto head = store.family_head(summary_family_key(g, opt));
    ASSERT_TRUE(head.has_value());
    // Flip one payload byte on disk.
    const fs::path obj = fs::path(dir.str()) / "objects" /
                         head->substr(0, 2) / head->substr(2);
    ASSERT_TRUE(fs::exists(obj));
    std::string bytes;
    {
      std::ifstream in(obj, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 60u);
    bytes[bytes.size() - 1] ^= 0x5A;
    {
      std::ofstream out(obj, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  }
  // A fresh store (no pins, no cached deserialization) must treat the
  // mangled summary as a quarantined miss and still verify correctly.
  ArtifactStore store({dir.str(), 0});
  StoreOutcome out;
  const verify::VerifyResult r = verify_with_store(g, opt, store, &out);
  EXPECT_FALSE(out.summary_hit);
  EXPECT_TRUE(r.secure);
  EXPECT_GE(store.stats().quarantined, 1u);
}

TEST(SummarySerial, RejectsAlienFraming) {
  // deserialize_summary throws SerializationError on anything that is not
  // a well-formed SANISUM image; the store layer turns that into a
  // quarantined miss (SummarySerial.CorruptSummaryQuarantinesAsAMiss).
  EXPECT_THROW(deserialize_summary(""), SerializationError);
  EXPECT_THROW(deserialize_summary("SANISUM"), SerializationError);
  // A Basis artifact is not a summary (magic splits the namespaces).
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.order = 1;
  const std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
  const std::string basis_image =
      serialize_basis(*basis, verify::basis_needs(opt.engine));
  EXPECT_THROW(deserialize_summary(basis_image), SerializationError);
  // And symmetrically: a summary image never loads as a Basis.
  TempDir dir("alien");
  ArtifactStore store({dir.str(), 0});
  verify::VerifyOptions iopt;
  iopt.order = 1;
  iopt.incremental = true;
  verify_with_store(g, iopt, store, nullptr);
  const auto head = store.family_head(summary_family_key(g, iopt));
  ASSERT_TRUE(head.has_value());
  const auto image = store.get(*head);
  ASSERT_TRUE(image.has_value());
  EXPECT_THROW(deserialize_basis(*image), SerializationError);
}

// One run record as the encoder lays it out (a failed record carries a
// zero alpha and the reason "f"); `masks` is the record's mask count.
struct RawRun {
  std::int32_t k;
  std::uint64_t begin;
  std::uint64_t count;
  std::uint8_t failed;
  std::uint64_t masks;
};

// `image`, the current encoding of `s`, with its run section replaced by
// `runs` and `coded` (a mask-dictionary sequence), re-framed: hash-valid,
// so only the decoder's checks stand between the runs and the plan.
std::string with_coded_runs(const std::string& image,
                            const verify::ConeSummary& s,
                            const std::vector<RawRun>& runs,
                            const std::string& coded) {
  // Guards (4 flags, order), varmap and digests, union verdict.
  const std::size_t head = 8 + 32 + 8 + 32 * s.digests.size() + 9;
  ByteWriter w;
  w.u64(runs.size());
  for (const RawRun& run : runs) {
    w.i32(run.k);
    w.u64(run.begin);
    w.u64(run.count);
    w.u8(run.failed);
    if (run.failed == 1) {
      write_mask(w, Mask{});
      w.str("f");
    }
    w.u64(run.masks);
  }
  w.append(coded);
  return frame(kSummaryMagic, kSummaryFormatVersion,
               image.substr(52, head) + w.bytes());
}

// The same with zero masks coded, as many as the records count plus
// `extra`.
std::string with_runs(const std::string& image, const verify::ConeSummary& s,
                      const std::vector<RawRun>& runs,
                      std::int64_t extra = 0) {
  std::int64_t total = extra;
  for (const RawRun& run : runs) total += static_cast<std::int64_t>(run.masks);
  const std::vector<Mask> zeros(static_cast<std::size_t>(total));
  MaskDictionaryWriter masks;
  masks.add(zeros.data(), zeros.size());
  ByteWriter coded;
  masks.write(coded);
  return with_coded_runs(image, s, runs, coded.bytes());
}

TEST(SummarySerial, RejectsHostileMaskDictionaries) {
  // The coded masks are hash-valid too: an index past the dictionary, or a
  // dictionary larger than its mask count or than the stream can hold,
  // must throw before any mask reaches the plan.
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.order = 1;
  opt.incremental = true;
  TempDir dir("hostile_dict");
  ArtifactStore store({dir.str(), 0});
  const std::string image = seeded_image(g, opt, store);
  const std::shared_ptr<const verify::ConeSummary> s =
      deserialize_summary(image);
  ASSERT_NE(s, nullptr);
  const std::vector<RawRun> runs = {{1, 0, 2, 0, 2}};
  const auto coded = [](std::uint64_t count, std::uint64_t distinct,
                        std::uint64_t masks,
                        const std::vector<std::uint64_t>& indices) {
    ByteWriter w;
    w.u64(count);
    w.u64(distinct);
    for (std::uint64_t i = 0; i < masks; ++i) write_mask(w, Mask{});
    for (const std::uint64_t idx : indices) w.vu64(idx);
    return w.take();
  };
  // Well formed: two masks, one dictionary entry.
  EXPECT_EQ(deserialize_summary(
                with_coded_runs(image, *s, runs, coded(2, 1, 1, {0, 0})))
                ->runs.at(0)
                .masks.size(),
            2u);
  const struct {
    const char* what;
    std::string bytes;
  } hostile[] = {
      {"index out of range", coded(2, 1, 1, {0, 1})},
      {"dictionary larger than its masks", coded(2, 3, 3, {0, 0})},
      {"dictionary larger than the stream", coded(2, 1u << 30, 1, {0, 0})},
      {"count larger than the stream", coded(1u << 30, 1, 1, {0, 0})},
  };
  for (const auto& h : hostile)
    EXPECT_THROW(deserialize_summary(
                     with_coded_runs(image, *s, runs, h.bytes)),
                 SerializationError)
        << h.what;
}

TEST(SummarySerial, RejectsDependencyRunsOfTheWrongShape) {
  // Runs the plan would binary-search, replay or index wrongly are
  // hash-valid (frame() wraps whatever it is given), so the reader refuses
  // them: out of order, overlapping, empty (with or without a failure
  // flag), past the old rank space C(n_old, k), a size outside [1, order],
  // a failure flag other than 0 or 1, a mask count neither 0 nor the run's
  // passes, or fewer or more coded masks than the records count.  The
  // store quarantines each as a miss.
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.order = 1;
  opt.incremental = true;
  TempDir dir("hostile");
  ArtifactStore store({dir.str(), 0});
  const std::string image = seeded_image(g, opt, store);
  const std::shared_ptr<const verify::ConeSummary> s =
      deserialize_summary(image);
  ASSERT_NE(s, nullptr);
  const std::uint64_t n_old = s->digests.size();
  ASSERT_GE(n_old, 4u);

  // Adjacent runs, a run ending exactly at C(n_old, 1), a failed run with
  // and without the masks of its passes, and a run without masks are well
  // formed.
  for (const std::vector<RawRun>& ok :
       {std::vector<RawRun>{{1, 0, 1, 0, 1}, {1, 1, 2, 0, 2}},
        std::vector<RawRun>{{1, n_old - 2, 2, 0, 2}},
        std::vector<RawRun>{{1, 0, 3, 1, 2}, {1, 3, 1, 1, 0}},
        std::vector<RawRun>{{1, 0, 3, 0, 0}}}) {
    const auto back = deserialize_summary(with_runs(image, *s, ok));
    ASSERT_EQ(back->runs.size(), ok.size());
    for (std::size_t i = 0; i < ok.size(); ++i) {
      EXPECT_EQ(back->runs[i].end, ok[i].begin + ok[i].count);
      EXPECT_EQ(back->runs[i].failed, ok[i].failed == 1);
      EXPECT_EQ(back->runs[i].masks.size(), ok[i].masks);
    }
  }

  const struct {
    const char* what;
    std::vector<RawRun> runs;
    std::int64_t extra;
  } hostile[] = {
      {"unsorted", {{1, 2, 1, 0, 1}, {1, 0, 1, 0, 1}}, 0},
      {"overlapping", {{1, 0, 2, 0, 2}, {1, 1, 1, 0, 1}}, 0},
      {"empty", {{1, 0, 0, 0, 0}}, 0},
      {"failure flag on an empty run", {{1, 0, 0, 1, 0}}, 0},
      {"past C(n_old, 1)", {{1, n_old - 1, 2, 0, 2}}, 0},
      {"k below 1", {{0, 0, 1, 0, 1}}, 0},
      {"k above the order", {{s->order + 1, 0, 1, 0, 1}}, 0},
      {"failure flag 2", {{1, 0, 2, 2, 1}}, 0},
      {"masks short of the passes", {{1, 0, 3, 0, 2}}, 0},
      {"masks past the passes", {{1, 0, 2, 0, 3}}, 0},
      {"a mask for the failure", {{1, 0, 2, 1, 2}}, 0},
      {"fewer coded masks", {{1, 0, 2, 0, 2}}, -1},
      {"more coded masks", {{1, 0, 2, 0, 2}}, 1},
  };
  for (std::size_t i = 0; i < std::size(hostile); ++i) {
    const std::string bad =
        with_runs(image, *s, hostile[i].runs, hostile[i].extra);
    EXPECT_THROW(deserialize_summary(bad), SerializationError)
        << hostile[i].what;
    const std::string key(64, "0123456789abcdef"[i]);
    ASSERT_TRUE(store.put(key, bad));
    const std::uint64_t before = store.stats().quarantined;
    EXPECT_EQ(store.load_summary(key), nullptr) << hostile[i].what;
    EXPECT_EQ(store.stats().quarantined, before + 1) << hostile[i].what;
  }
}

TEST(SummarySerial, MutatedPayloadsParseOrThrow) {
  // Seeded bit flips and truncations of a keccak-2 summary's payload,
  // re-framed so that the hash check passes and the payload parser sees
  // every mutation: each image must parse or throw SerializationError,
  // never crash or read out of bounds (the suite also runs under ASan and
  // UBSan).
  const circuit::Gadget g = gadgets::by_name("keccak-2");
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.incremental = true;
  TempDir dir("mutated");
  ArtifactStore store({dir.str(), 0});
  const std::string image = seeded_image(g, opt, store);
  ASSERT_GT(image.size(), 52u);
  const std::string payload = image.substr(52);
  std::uint64_t parsed = 0, rejected = 0;
  const auto attempt = [&](const std::string& mutated) {
    try {
      deserialize_summary(frame(kSummaryMagic, kSummaryFormatVersion, mutated));
      ++parsed;
    } catch (const SerializationError&) {
      ++rejected;
    }
  };
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = payload;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng() % (mutated.size() * 8);
      mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
    }
    attempt(mutated);
  }
  for (int i = 0; i < 500; ++i) attempt(payload.substr(0, rng() % payload.size()));
  // Every cut through the head and the first run records.
  for (std::size_t len = 0; len < std::min<std::size_t>(payload.size(), 512);
       ++len)
    attempt(payload.substr(0, len));
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// No rewrite of an unchanged summary
// ---------------------------------------------------------------------------

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Incremental, UnchangedResubmissionLeavesTheSummaryUntouched) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.deterministic_report = true;
  opt.incremental = true;

  TempDir dir("unchanged");
  ArtifactStore store({dir.str(), 0});
  StoreOutcome first;
  const verify::VerifyResult r_first = verify_with_store(g, opt, store, &first);
  ASSERT_TRUE(first.summary_saved);
  const std::string family = summary_family_key(g, opt);
  const auto head = store.family_head(family);
  ASSERT_TRUE(head.has_value());
  const fs::path object = fs::path(dir.str()) / "objects" /
                          head->substr(0, 2) / head->substr(2);
  const fs::path head_file = fs::path(dir.str()) / "heads" / family;
  const std::string object_bytes = file_bytes(object);
  const std::string head_bytes = file_bytes(head_file);
  const auto object_time = fs::last_write_time(object);
  const auto head_time = fs::last_write_time(head_file);

  StoreOutcome again;
  const verify::VerifyResult r_again = verify_with_store(g, opt, store, &again);
  EXPECT_TRUE(again.hit);
  EXPECT_TRUE(again.summary_hit);
  EXPECT_FALSE(again.summary_saved);
  EXPECT_EQ(r_again.stats.incremental.combinations_rechecked, 0u);
  EXPECT_EQ(verify::json_report("dom-2", opt, r_again, 2.0),
            verify::json_report("dom-2", opt, r_first, 1.0));
  EXPECT_EQ(file_bytes(object), object_bytes);
  EXPECT_EQ(file_bytes(head_file), head_bytes);
  EXPECT_EQ(fs::last_write_time(object), object_time);
  EXPECT_EQ(fs::last_write_time(head_file), head_time);
}

TEST(Incremental, HigherOrderResubmissionStillWrites) {
  // Same netlist, same summary object key, but order 3 re-checks the
  // size-3 combinations the order-2 summary never covered: the run must
  // write the wider summary.
  const circuit::Gadget g = gadgets::by_name("dom-3");
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.incremental = true;

  TempDir dir("order3");
  ArtifactStore store({dir.str(), 0});
  StoreOutcome first;
  verify_with_store(g, opt, store, &first);
  ASSERT_TRUE(first.summary_saved);
  const auto head = store.family_head(summary_family_key(g, opt));
  ASSERT_TRUE(head.has_value());

  opt.order = 3;
  StoreOutcome wider;
  const verify::VerifyResult r = verify_with_store(g, opt, store, &wider);
  EXPECT_TRUE(wider.summary_hit);
  EXPECT_TRUE(wider.summary_saved);
  EXPECT_GT(r.stats.incremental.combinations_skipped, 0u);
  EXPECT_GT(r.stats.incremental.combinations_rechecked, 0u);
  EXPECT_EQ(store.family_head(summary_family_key(g, opt)), head);
  const std::shared_ptr<const verify::ConeSummary> s =
      store.load_summary(*head);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->order, 3);
}

// ---------------------------------------------------------------------------
// Replay by rank, and renamed resubmissions
// ---------------------------------------------------------------------------

/// Every net and every port group renamed: the canonical text (hence the
/// Basis artifact key) changes, no cone digest and no observable index does.
circuit::Gadget renamed_ports(const circuit::Gadget& g,
                              const std::string& prefix) {
  circuit::Gadget out = circuit::with_renamed_wires(g, prefix);
  for (auto* groups : {&out.spec.secrets, &out.spec.outputs})
    for (circuit::ShareGroup& group : *groups) group.name = prefix + group.name;
  return out;
}

/// `g` with one extra gate, AND of the first two randoms, placed right after
/// the second: a fresh probe early in wire order, so every later probe
/// moves up one observable index.
circuit::Gadget with_early_probe(const circuit::Gadget& g) {
  const circuit::Netlist& nl = g.netlist;
  const circuit::WireId r0 = g.spec.randoms.at(0);
  const circuit::WireId r1 = g.spec.randoms.at(1);
  const circuit::WireId at = std::max(r0, r1) + 1;
  const auto moved = [at](circuit::WireId w) {
    return w == circuit::kNoWire || w < at ? w : w + 1;
  };
  circuit::Netlist out(nl.name());
  for (circuit::WireId w = 0; w < nl.num_wires(); ++w) {
    if (w == at) out.add(circuit::GateKind::kAnd, "early_probe", r0, r1);
    const circuit::GateNode& node = nl.node(w);
    out.add(node.kind, node.name, moved(node.fanin[0]), moved(node.fanin[1]),
            moved(node.fanin[2]));
  }
  for (circuit::WireId w : nl.outputs()) out.add_output(moved(w));
  circuit::SecuritySpec spec = g.spec;
  for (auto* groups : {&spec.secrets, &spec.outputs})
    for (circuit::ShareGroup& group : *groups)
      for (circuit::WireId& w : group.shares) w = moved(w);
  for (auto* wires : {&spec.randoms, &spec.publics})
    for (circuit::WireId& w : *wires) w = moved(w);
  circuit::Gadget edited{std::move(out), std::move(spec)};
  edited.validate();
  return edited;
}

/// The plan `g` would scan against: the family head's summary over `g`'s
/// Basis (nullopt when the store has no head or the plan is rejected).
std::optional<verify::IncrementalPlan> plan_for(
    const circuit::Gadget& g, const verify::VerifyOptions& opt,
    ArtifactStore& store) {
  const auto head = store.family_head(summary_family_key(g, opt));
  if (!head) return std::nullopt;
  return verify::IncrementalPlan::build(*build_basis_for(g, opt),
                                        store.load_summary(*head), opt);
}

TEST(Incremental, LayoutPreservingReplayMatchesCold) {
  // perfbench's resubmission chain: an edit (write), the same text again
  // (read) and its port-renamed twin (rename), then function-changing edits
  // (rewire, complement) each followed by its text again.  Each keeps every
  // observable's index, so the plan replays by the scan's own rank.  A swap
  // changes no function, so only the rewire and the complement re-check
  // anything or write a summary.
  for (const std::string name : {"keccak-2", "dom-3"}) {
    SCOPED_TRACE(name);
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget edited =
        circuit::with_swapped_fanins(g, circuit::first_swappable_gate(g));
    const circuit::Gadget renamed = renamed_ports(edited, "p_");
    const std::optional<circuit::Gadget> rewired =
        circuit::with_first_and_rewired(edited);
    ASSERT_TRUE(rewired.has_value());
    const std::optional<circuit::Gadget> complemented =
        circuit::with_xor_complemented(edited);
    ASSERT_TRUE(complemented.has_value());
    verify::VerifyOptions opt;
    opt.order = gadgets::security_level(name);
    opt.deterministic_report = true;
    opt.incremental = true;

    TempDir dir("layout");
    ArtifactStore store({dir.str(), 0});
    StoreOutcome seed;
    verify_with_store(g, opt, store, &seed);
    ASSERT_TRUE(seed.summary_saved);

    struct Step {
      const char* what;
      const circuit::Gadget* gadget;
      bool saves;
    };
    for (const Step& step : {Step{"write", &edited, false},
                             Step{"read", &edited, false},
                             Step{"rename", &renamed, false},
                             Step{"rewire", &*rewired, true},
                             Step{"read rewired", &*rewired, false},
                             Step{"complement", &*complemented, true},
                             Step{"read complemented", &*complemented,
                                  false}}) {
      SCOPED_TRACE(step.what);
      const std::optional<verify::IncrementalPlan> plan =
          plan_for(*step.gadget, opt, store);
      ASSERT_TRUE(plan.has_value());
      EXPECT_TRUE(plan->layout_preserving());
      StoreOutcome o;
      const verify::VerifyResult r =
          verify_with_store(*step.gadget, opt, store, &o);
      EXPECT_TRUE(o.summary_hit);
      EXPECT_EQ(o.summary_saved, step.saves);
      EXPECT_GT(r.stats.incremental.combinations_skipped, 0u);
      if (step.saves) {
        EXPECT_GT(r.stats.incremental.combinations_rechecked, 0u);
      } else {
        EXPECT_EQ(r.stats.incremental.combinations_rechecked, 0u);
      }
      // The head's summary — rewritten or kept — is the cold run's, bit for
      // bit and mask for mask.
      const ColdRun cold = cold_run(name, *step.gadget, opt);
      EXPECT_EQ(verify::json_report(name, opt, r, 2.0), cold.report);
      EXPECT_EQ(head_summary(*step.gadget, opt, store), cold.summary);
    }
  }
}

TEST(Incremental, PermutedLayoutTakesTheRemapPath) {
  // An extra probe early in wire order shifts every later observable's
  // index: the plan has to map, sort and re-rank each combination, and the
  // result must still be the cold one.
  for (const std::string name : {"dom-3", "keccak-2"}) {
    SCOPED_TRACE(name);
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget grown = with_early_probe(g);
    verify::VerifyOptions opt;
    opt.order = 2;
    opt.deterministic_report = true;
    opt.incremental = true;

    TempDir dir("permuted");
    ArtifactStore store({dir.str(), 0});
    verify_with_store(g, opt, store, nullptr);
    const std::optional<verify::IncrementalPlan> plan =
        plan_for(grown, opt, store);
    ASSERT_TRUE(plan.has_value());
    EXPECT_FALSE(plan->layout_preserving());

    StoreOutcome o;
    const verify::VerifyResult r = verify_with_store(grown, opt, store, &o);
    EXPECT_TRUE(o.summary_hit);
    EXPECT_TRUE(o.summary_saved);
    EXPECT_GT(r.stats.incremental.combinations_skipped, 0u);
    EXPECT_GT(r.stats.incremental.combinations_rechecked, 0u);
    EXPECT_LT(r.stats.incremental.cones_reused,
              r.stats.incremental.cones_total);
    // The summary it wrote holds the cold run's bitmaps and dependency
    // masks: a combination replayed from the wrong old rank would splice in
    // another combination's mask.
    const ColdRun cold = cold_run(name, grown, opt);
    EXPECT_EQ(verify::json_report(name, opt, r, 2.0), cold.report);
    EXPECT_EQ(head_summary(grown, opt, store), cold.summary);
  }
}

/// Every file under `sub` of a store directory, path -> bytes.
std::map<std::string, std::string> tree_bytes(const std::string& dir,
                                              const std::string& sub) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(fs::path(dir) / sub))
    if (e.is_regular_file())
      files[fs::relative(e.path(), dir).string()] = file_bytes(e.path());
  return files;
}

TEST(Incremental, RenamedResubmissionWritesNothing) {
  // A renamed netlist is a new Basis artifact, but its summary would be
  // the head's all over again: only the Basis object may appear.
  const circuit::Gadget g = gadgets::by_name("keccak-2");
  const circuit::Gadget renamed = renamed_ports(g, "p_");
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.deterministic_report = true;
  opt.incremental = true;

  TempDir dir("renamed");
  ArtifactStore store({dir.str(), 0});
  StoreOutcome first;
  const verify::VerifyResult r_first = verify_with_store(g, opt, store, &first);
  ASSERT_TRUE(first.summary_saved);
  const std::string family = summary_family_key(g, opt);
  ASSERT_EQ(summary_family_key(renamed, opt), family);
  const auto head = store.family_head(family);
  ASSERT_TRUE(head.has_value());
  const std::map<std::string, std::string> objects =
      tree_bytes(dir.str(), "objects");
  const std::map<std::string, std::string> heads =
      tree_bytes(dir.str(), "heads");

  StoreOutcome again;
  const verify::VerifyResult r_again =
      verify_with_store(renamed, opt, store, &again);
  EXPECT_FALSE(again.hit);
  EXPECT_TRUE(again.saved);
  EXPECT_TRUE(again.summary_hit);
  EXPECT_FALSE(again.summary_saved);
  EXPECT_EQ(r_again.stats.incremental.combinations_rechecked, 0u);
  EXPECT_EQ(r_again.secure, r_first.secure);
  EXPECT_EQ(store.family_head(family), head);
  EXPECT_EQ(tree_bytes(dir.str(), "heads"), heads);
  // Every object keeps its bytes; the one new object is the renamed Basis.
  std::map<std::string, std::string> after = tree_bytes(dir.str(), "objects");
  const std::string basis_object =
      (fs::path("objects") / again.key.substr(0, 2) / again.key.substr(2))
          .string();
  ASSERT_EQ(after.count(basis_object), 1u);
  after.erase(basis_object);
  EXPECT_EQ(after, objects);
}

// ---------------------------------------------------------------------------
// Range replay and union-verdict replay
// ---------------------------------------------------------------------------

TEST(Incremental, RangeReplayMatchesCold) {
  // A read (the same text again) and a port-renamed resubmission keep every
  // cone at its index: the scan replays in bulk runs of clean passes, so
  // nothing is re-checked, and the report is the cold one byte for byte.
  // With the union check each run is also bounded by the summary's
  // dependency runs; without it none are recorded, so the verdict bitmaps
  // alone end a run (at a failed or unchecked rank).
  struct Case {
    std::string name;
    bool union_check;
    int jobs;
  };
  std::vector<Case> cases;
  for (const bool union_check : {true, false})
    for (const int jobs : {1, 2})
      for (const std::string& name : gadgets::all_names())
        cases.push_back({name, union_check, jobs});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + (c.union_check ? "" : " no-union") + " jobs " +
                 std::to_string(c.jobs));
    const circuit::Gadget g = gadgets::by_name(c.name);
    verify::VerifyOptions opt;
    opt.union_check = c.union_check;
    opt.order = std::min(2, gadgets::security_level(c.name));
    opt.deterministic_report = true;
    opt.incremental = true;
    opt.jobs = c.jobs;

    TempDir dir("range");
    ArtifactStore store({dir.str(), 0});
    StoreOutcome seed;
    verify_with_store(g, opt, store, &seed);
    ASSERT_TRUE(seed.summary_saved);
    for (const circuit::Gadget& again : {g, renamed_ports(g, "p_")}) {
      StoreOutcome o;
      const verify::VerifyResult r = verify_with_store(again, opt, store, &o);
      EXPECT_TRUE(o.summary_hit);
      EXPECT_GT(r.stats.incremental.combinations_skipped, 0u);
      // Two workers race past an insecure verdict's witness: ranks the
      // seeding run left unchecked there may be checked now.  Everything
      // else replays.
      if (r.secure || c.jobs == 1) {
        EXPECT_FALSE(o.summary_saved);
        EXPECT_EQ(r.stats.incremental.combinations_rechecked, 0u);
      }
      EXPECT_EQ(verify::json_report(c.name, opt, r, 2.0),
                cold_run(c.name, again, opt).report);
    }
  }
}

TEST(Incremental, RangeReplayStopsAtUnmatchedCones) {
  // A function-changing edit keeps every observable's index but not every
  // digest: each bulk run must end at the first combination that holds an
  // unmatched observable, and the report and summary must be cold's.  The
  // rewired gadget stops at a witness; the complemented one stays secure,
  // so its bulk runs cover the whole enumeration.
  for (const std::string name : {"keccak-2", "dom-3"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    for (const Edit& edit : edits_of(g)) {
      if (!edit.changes_functions) continue;
      SCOPED_TRACE(name + ", " + edit.kind);
      const circuit::Gadget& edited = edit.gadget;
      verify::VerifyOptions opt;
      opt.order = gadgets::security_level(name);
      opt.deterministic_report = true;
      opt.incremental = true;

      TempDir dir("unmatched");
      ArtifactStore store({dir.str(), 0});
      verify_with_store(g, opt, store, nullptr);
      const std::optional<verify::IncrementalPlan> plan =
          plan_for(edited, opt, store);
      ASSERT_TRUE(plan.has_value());
      ASSERT_TRUE(plan->layout_preserving());
      const verify::VerifyResult r =
          verify_with_store(edited, opt, store, nullptr);
      if (edit.keeps_verdict) {
        EXPECT_TRUE(r.secure);
      }
      EXPECT_LT(r.stats.incremental.cones_reused,
                r.stats.incremental.cones_total);
      EXPECT_GT(r.stats.incremental.combinations_skipped, 0u);
      EXPECT_GT(r.stats.incremental.combinations_rechecked, 0u);
      const ColdRun cold = cold_run(name, edited, opt);
      EXPECT_EQ(verify::json_report(name, opt, r, 2.0), cold.report);
      EXPECT_EQ(head_summary(edited, opt, store), cold.summary);
    }
  }
}

TEST(Incremental, SummariesAreCanonicalAcrossShardPlans) {
  // A summary is a function of the scan's outcome, not of its shard plan:
  // a secure scan's runs coalesce into one per size class, so every worker
  // count and shard size writes the same bytes.  A replay against it then
  // credits each shard of any plan in one bulk step.
  struct ShardPlan {
    int jobs;
    std::uint64_t shard_size;
  };
  const ShardPlan plans[] = {{1, 0}, {2, 0}, {4, 0}, {1, 64}};
  for (const auto& [name, order] :
       {std::pair<std::string, int>{"keccak-2", 2}, {"dom-3", 3}}) {
    SCOPED_TRACE(name);
    const circuit::Gadget g = gadgets::by_name(name);
    verify::VerifyOptions opt;
    opt.order = order;
    opt.incremental = true;
    std::vector<std::string> images;
    for (const ShardPlan& p : plans) {
      opt.jobs = p.jobs;
      opt.shard_size = p.shard_size;
      TempDir dir("canonical");
      ArtifactStore store({dir.str(), 0});
      images.push_back(seeded_image(g, opt, store));
      ASSERT_FALSE(images.back().empty());
    }
    for (std::size_t i = 1; i < images.size(); ++i)
      EXPECT_EQ(images[i], images[0])
          << "jobs " << plans[i].jobs << ", shard size "
          << plans[i].shard_size;

    const std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
    const std::optional<verify::IncrementalPlan> plan =
        verify::IncrementalPlan::build(*basis, deserialize_summary(images[0]),
                                       opt);
    ASSERT_TRUE(plan.has_value());
    const int N = static_cast<int>(basis->size());
    std::vector<int> scratch;
    for (const ShardPlan& p : plans) {
      sched::ShardPlanOptions po;
      po.fixed_size = p.shard_size;
      for (const sched::Shard& shard :
           sched::plan_shards(N, order, p.jobs, false, po)) {
        const verify::IncrementalPlan::Step step =
            plan->step(unrank_combination(N, shard.k, shard.begin),
                       shard.begin, shard.end, scratch);
        EXPECT_EQ(step.kind, verify::IncrementalPlan::Step::Kind::kPasses);
        EXPECT_EQ(step.n, shard.size())
            << "k " << shard.k << ", begin " << shard.begin;
        EXPECT_NE(step.masks, nullptr);
      }
    }
  }
}

TEST(Incremental, SummaryRunsCoalesceOnlyAfterAPass) {
  // Five folded partials of one size class, out of order: two passing
  // shards either side of one that failed at its last rank, one cut short
  // by a deadline, and one after the gap it leaves.  A run continues into
  // the next only when it ended without a failure, so the summary holds
  // [0, 8) failing at 7, [8, 14) and [16, 20), each with the masks of its
  // passes.
  const circuit::Gadget g = gadgets::by_name("keccak-1");
  verify::VerifyOptions opt;
  opt.order = 1;
  const std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
  ASSERT_GE(basis->size(), 20u);
  verify::ReportAssembler assembler(basis, opt);
  const auto part = [](std::uint64_t begin, std::uint64_t end,
                       std::uint64_t covered_end, bool failed) {
    verify::PartialReport p;
    p.k = 1;
    p.begin = begin;
    p.end = end;
    p.covered_end = covered_end;
    p.combinations = covered_end - begin;
    p.has_failure = failed;
    p.fail_rank = covered_end - 1;
    p.fail_reason = "f";
    for (std::uint64_t r = begin; r < covered_end - (failed ? 1 : 0); ++r)
      p.deps.push_back(Mask::bit(static_cast<int>(r)));
    return p;
  };
  assembler.add(part(16, 20, 20, false));
  assembler.add(part(4, 8, 8, true));
  assembler.add(part(12, 16, 14, false));
  assembler.add(part(0, 4, 4, false));
  assembler.add(part(8, 12, 12, false));
  const verify::ConeSummary s =
      verify::make_summary(*basis, opt, std::move(assembler));
  struct Want {
    std::uint64_t begin, end;
    bool failed;
  };
  const Want want[] = {{0, 8, true}, {8, 14, false}, {16, 20, false}};
  ASSERT_EQ(s.runs.size(), std::size(want));
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const verify::ConeSummary::Run& run = s.runs[i];
    EXPECT_EQ(run.begin, want[i].begin) << i;
    EXPECT_EQ(run.end, want[i].end) << i;
    EXPECT_EQ(run.failed, want[i].failed) << i;
    ASSERT_EQ(run.masks.size(), run.passes()) << i;
    for (std::uint64_t r = 0; r < run.passes(); ++r)
      EXPECT_TRUE(run.masks[r] == Mask::bit(static_cast<int>(run.begin + r)))
          << i << " rank " << run.begin + r;
  }
  EXPECT_EQ(s.runs[0].reason, "f");
  EXPECT_EQ(verify::summary_checked_count(s), 18u);
}

/// bruteforce_test's MuxGadgetSeparatesRowAndSetChecks gadget: every row
/// check passes, the set-level union check fails 1-NI.
circuit::Gadget union_insecure_gadget() {
  circuit::GadgetBuilder b("mux_leak");
  auto a = b.secret("a", 2);
  auto r = b.random("r");
  const circuit::WireId q = b.mux(a[1], a[0], r, "q");  // r ? a0 : a1
  b.output_group("c", {b.buf(q)});
  return b.build();
}

TEST(Incremental, UnionVerdictReplaysOnlyOnTheRecordedTable) {
  // Only a resubmission that rebuilds the recorded table — every
  // combination replayed at the summary's order, every cone reused — may
  // take the union verdict from the summary, and only a passing one.  A
  // function-preserving edit does.  A function-changing edit that keeps
  // dom-3 secure re-runs the pass, and its re-written summary records the
  // passing verdict, which the same edit resubmitted replays.  A
  // lower-order run, a higher-order run and a union-insecure gadget all
  // re-run the pass, and every report matches cold.
  const circuit::Gadget g = gadgets::by_name("dom-3");
  const circuit::Gadget swapped =
      circuit::with_swapped_fanins(g, circuit::first_swappable_gate(g));
  const std::optional<circuit::Gadget> complemented =
      circuit::with_xor_complemented(g);
  ASSERT_TRUE(complemented.has_value());
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.deterministic_report = true;
  opt.incremental = true;

  TempDir dir("union_verdict");
  ArtifactStore store({dir.str(), 0});
  const auto submit = [&](const circuit::Gadget& gadget,
                          const verify::VerifyOptions& o,
                          const std::string& name) {
    const verify::VerifyResult r = verify_with_store(gadget, o, store, nullptr);
    EXPECT_EQ(verify::json_report(name, o, r, 2.0),
              cold_run(name, gadget, o).report)
        << name;
    EXPECT_TRUE(r.secure) << name;
    return r.stats.incremental;
  };
  EXPECT_FALSE(submit(g, opt, "dom-3").union_replayed);  // cold
  EXPECT_TRUE(submit(g, opt, "dom-3").union_replayed);   // the table again
  EXPECT_TRUE(submit(swapped, opt, "dom-3 swapped").union_replayed);
  const verify::IncrementalStats edit =
      submit(*complemented, opt, "dom-3 complemented");
  EXPECT_GT(edit.combinations_rechecked, 0u);
  EXPECT_GT(edit.combinations_skipped, 0u);
  EXPECT_FALSE(edit.union_replayed);
  EXPECT_TRUE(
      submit(*complemented, opt, "dom-3 complemented").union_replayed);
  verify::VerifyOptions lower = opt;
  lower.order = 1;
  EXPECT_FALSE(
      submit(*complemented, lower, "dom-3 order 1").union_replayed);
  verify::VerifyOptions higher = opt;
  higher.order = 3;
  EXPECT_FALSE(
      submit(*complemented, higher, "dom-3 order 3").union_replayed);

  // A failing union pass is recorded as failed and never replayed: the
  // witness is computed again.
  const circuit::Gadget mux = union_insecure_gadget();
  verify::VerifyOptions ni = opt;
  ni.notion = verify::Notion::kNI;
  ni.order = 1;
  for (int run = 0; run < 2; ++run) {
    const verify::VerifyResult r = verify_with_store(mux, ni, store, nullptr);
    EXPECT_FALSE(r.secure);
    EXPECT_FALSE(r.stats.incremental.union_replayed);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_NE(r.counterexample->reason.find("set-level"), std::string::npos);
    EXPECT_EQ(verify::json_report("mux", ni, r, 2.0),
              cold_run("mux", mux, ni).report);
  }
  const auto head = store.family_head(summary_family_key(mux, ni));
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(store.load_summary(*head)->union_verdict.state,
            verify::UnionVerdict::State::kFailed);
}

}  // namespace
}  // namespace sani::store
