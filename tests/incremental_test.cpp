// The incremental correctness gate: diff-aware re-verification must be
// invisible in every output byte.  For each registry gadget, resubmitting
// after a function-preserving single-gate edit has to produce the same
// verdict, the same witness and a byte-identical deterministic report as a
// cold full scan of the edited gadget, while re-checking strictly fewer
// combinations; an unchanged resubmission re-checks none.  Plus the plan
// builder's guard rails, summary serialization round-trips and the
// cross-engine reuse the engine-invariant dependency masks license.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "store/cached_verify.h"
#include "store/serial.h"
#include "store/store.h"
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
  circuit::Unfolded u = circuit::unfold(g, opt.cache_bits, opt.var_order);
  if (opt.sift_after_unfold) u.manager->reorder_sift();
  verify::ObservableSet obs = verify::build_observables(g, u, opt.probes);
  return verify::build_basis(u, obs, opt.engine);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: every registry gadget, edit-resubmit == cold.
// ---------------------------------------------------------------------------

TEST(Incremental, EditResubmitMatchesColdAcrossTheRegistry) {
  // One worker on the calling thread, and two, whose report carries the
  // per-worker visit counts.
  std::vector<std::pair<std::string, int>> cases;
  for (const int jobs : {1, 2})
    for (const std::string& name : gadgets::all_names())
      cases.emplace_back(name, jobs);
  for (const auto& [name, jobs] : cases) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::WireId swap = circuit::first_swappable_gate(g);
    ASSERT_NE(swap, circuit::kNoWire) << name;
    const circuit::Gadget edited = circuit::with_swapped_fanins(g, swap);

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

    // Edited resubmission: seeded by the prior summary.
    StoreOutcome warm;
    const verify::VerifyResult r_inc =
        verify_with_store(edited, opt, store, &warm);
    EXPECT_FALSE(warm.hit) << name;  // the edit re-keys the Basis artifact
    EXPECT_TRUE(warm.summary_hit) << name;
    EXPECT_TRUE(warm.summary_saved) << name;

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
    if (r_cold.secure || jobs == 1)
      EXPECT_EQ(r_again.stats.incremental.combinations_rechecked, 0u) << name;
    EXPECT_EQ(r_again.stats.incremental.cones_reused,
              r_again.stats.incremental.cones_total)
        << name;
    EXPECT_EQ(verify::json_report(name, opt, r_again, 3.0),
              verify::json_report(name, opt, r_cold, 1.0))
        << name;
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
  }
}

TEST(Incremental, ParallelScanReplaysAndMatchesCold) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  const circuit::Gadget edited =
      circuit::with_swapped_fanins(g, circuit::first_swappable_gate(g));

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
  EXPECT_LT(r_inc.stats.incremental.combinations_rechecked,
            r_cold.stats.combinations);
  EXPECT_EQ(fingerprint(r_inc), fingerprint(r_cold));
  // jobs shapes parallel stats, which the deterministic report strips — the
  // cross-temperature byte-identity must hold across the jobs split too.
  EXPECT_EQ(verify::json_report("dom-2", opt, r_inc, 2.0),
            verify::json_report("dom-2", opt, r_cold, 1.0));
}

TEST(Incremental, SummariesTransferAcrossEngines) {
  // Dependency masks are engine-invariant: a summary written by one engine
  // seeds a scan by another (the Basis artifact misses — different
  // BasisNeeds — but the family head hits).
  const circuit::Gadget g = gadgets::by_name("dom-2");
  TempDir dir("xengine");
  ArtifactStore store({dir.str(), 0});

  verify::VerifyOptions opt;
  opt.order = 2;
  opt.incremental = true;
  opt.engine = verify::EngineKind::kMAPI;
  verify_with_store(g, opt, store, nullptr);

  opt.engine = verify::EngineKind::kFUJITA;
  StoreOutcome warm;
  const verify::VerifyResult r =
      verify_with_store(g, opt, store, &warm);
  EXPECT_FALSE(warm.hit);
  EXPECT_TRUE(warm.summary_hit);
  EXPECT_EQ(r.stats.incremental.combinations_rechecked, 0u);
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
    // sizes beyond its order have no table and classify dirty.
    verify::VerifyOptions o = opt_;
    o.order = opt_.order + 1;
    const auto plan = verify::IncrementalPlan::build(*basis_, summary_, o);
    ASSERT_TRUE(plan.has_value());
    std::vector<int> scratch;
    const std::vector<int> big(static_cast<std::size_t>(o.order), 0);
    EXPECT_EQ(plan->classify(big, scratch).kind,
              verify::IncrementalPlan::Kind::kDirty);
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

TEST(SummarySerial, RoundTripPreservesEveryField) {
  const circuit::Gadget g = gadgets::by_name("ti-1");
  verify::VerifyOptions opt;
  opt.notion = verify::Notion::kSNI;  // insecure: summary carries failures
  opt.order = 1;
  opt.incremental = true;

  TempDir dir("serial");
  ArtifactStore store({dir.str(), 0});
  verify_with_store(g, opt, store, nullptr);
  const auto head = store.family_head(summary_family_key(g, opt));
  ASSERT_TRUE(head.has_value());
  const std::shared_ptr<const verify::ConeSummary> s =
      store.load_summary(*head);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->failures.empty());

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
  EXPECT_EQ(back->num_secrets, s->num_secrets);
  EXPECT_EQ(back->varmap, s->varmap);
  EXPECT_EQ(back->digests, s->digests);
  ASSERT_EQ(back->tables.size(), s->tables.size());
  for (std::size_t k = 0; k < s->tables.size(); ++k) {
    EXPECT_EQ(back->tables[k].present, s->tables[k].present);
    EXPECT_EQ(back->tables[k].num_ranks, s->tables[k].num_ranks);
    EXPECT_EQ(back->tables[k].checked, s->tables[k].checked);
    EXPECT_EQ(back->tables[k].passed, s->tables[k].passed);
  }
  ASSERT_EQ(back->failures.size(), s->failures.size());
  for (std::size_t i = 0; i < s->failures.size(); ++i) {
    EXPECT_EQ(back->failures[i].k, s->failures[i].k);
    EXPECT_EQ(back->failures[i].rank, s->failures[i].rank);
    EXPECT_TRUE(back->failures[i].alpha == s->failures[i].alpha);
    EXPECT_EQ(back->failures[i].reason, s->failures[i].reason);
  }
  ASSERT_EQ(back->deps.size(), s->deps.size());
  for (std::size_t i = 0; i < s->deps.size(); ++i) {
    EXPECT_EQ(back->deps[i].k, s->deps[i].k);
    EXPECT_EQ(back->deps[i].rank, s->deps[i].rank);
    EXPECT_EQ(back->deps[i].V.size(), s->deps[i].V.size());
  }
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
      serialize_basis(*basis, needs_for_engine(opt.engine));
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

}  // namespace
}  // namespace sani::store
