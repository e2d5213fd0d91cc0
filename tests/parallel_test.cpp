#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/builder.h"
#include "gadgets/registry.h"
#include "sched/cancel.h"
#include "sched/pool.h"
#include "util/combinations.h"
#include "verify/bruteforce.h"
#include "verify/engine.h"
#include "verify/heuristic.h"
#include "verify/partial.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

using circuit::Gadget;
using circuit::GadgetBuilder;
using circuit::WireId;

// Verdict + witness, flattened for equality assertions.  Two runs agree iff
// their fingerprints are identical strings.
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

// For every registry gadget and order, any worker count returns the
// one-worker verdict, witness AND combination count.  shard_size is pinned
// small so even tiny probe spaces split into many shards (exercising the
// merge, not just one worker).
TEST(Parallel, DeterministicAcrossJobCountsAllRegistryGadgets) {
  for (const std::string& name : gadgets::all_names()) {
    const Gadget g = gadgets::by_name(name);
    for (int order : {1, 2}) {
      VerifyOptions opt;
      opt.notion = Notion::kSNI;
      opt.order = order;
      opt.jobs = 1;
      const VerifyResult serial = verify(g, opt);
      const std::string want = fingerprint(serial);
      for (int jobs : {2, 4}) {
        opt.jobs = jobs;
        opt.shard_size = 7;
        const VerifyResult parallel = verify(g, opt);
        EXPECT_EQ(fingerprint(parallel), want)
            << name << " order " << order << " jobs " << jobs;
        EXPECT_EQ(parallel.stats.combinations, serial.stats.combinations)
            << name << " order " << order << " jobs " << jobs;
        EXPECT_EQ(parallel.stats.parallel.jobs, jobs);
        // MAPI (the default engine) shares the one frozen Basis like every
        // other engine: no per-worker unfolding replays, ever.
        EXPECT_TRUE(parallel.stats.parallel.shared_basis)
            << name << " order " << order << " jobs " << jobs;
        EXPECT_EQ(parallel.stats.parallel.replays, 0u)
            << name << " order " << order << " jobs " << jobs;
      }
    }
  }
}

// --deterministic-report on an insecure multi-worker run: the counters are
// the search order's canonical ones (the combinations ordered at or before
// the witness, the dependency records before it), not whatever the workers
// happened to check before the cancellation landed — so repeated runs are
// byte-identical and equal the one-worker report.
TEST(Parallel, DeterministicReportOnInsecureRunsAcrossJobCounts) {
  struct Case {
    const char* gadget;
    int order;
    std::uint64_t combinations;
    std::uint64_t qinfo_entries;
  };
  for (const Case& c : {Case{"dom-3", 3, 2920, 2919},
                        Case{"keccak-2", 2, 1783, 1782}}) {
    const Gadget g = gadgets::by_name(c.gadget);
    VerifyOptions opt;
    opt.notion = Notion::kPINI;
    opt.order = c.order;
    opt.deterministic_report = true;
    opt.jobs = 1;
    const VerifyResult serial = verify(g, opt);
    ASSERT_FALSE(serial.secure) << c.gadget;
    EXPECT_EQ(serial.stats.combinations, c.combinations) << c.gadget;
    EXPECT_EQ(serial.stats.qinfo_entries, c.qinfo_entries) << c.gadget;

    opt.jobs = 4;
    opt.shard_size = 7;
    std::string first;
    for (int run = 0; run < 5; ++run) {
      const VerifyResult r = verify(g, opt);
      EXPECT_EQ(fingerprint(r), fingerprint(serial)) << c.gadget;
      EXPECT_EQ(r.stats.combinations, c.combinations) << c.gadget;
      EXPECT_EQ(r.stats.qinfo_entries, c.qinfo_entries) << c.gadget;
      const std::string report = json_report(c.gadget, opt, r, 0.0);
      if (run == 0)
        first = report;
      else
        EXPECT_EQ(report, first) << c.gadget << " run " << run;
    }
  }
}

// Largest-first search visits a different serial order (sizes descending);
// the parallel merge must reproduce *that* witness too.
TEST(Parallel, DeterministicUnderLargestFirst) {
  const Gadget g = gadgets::by_name("isw-2");
  VerifyOptions opt;
  opt.notion = Notion::kPINI;
  opt.order = 2;
  opt.search_order = SearchOrder::kLargestFirst;
  opt.jobs = 1;
  const std::string want = fingerprint(verify(g, opt));
  EXPECT_NE(want.find("insecure"), std::string::npos);
  for (int jobs : {2, 4}) {
    opt.jobs = jobs;
    opt.shard_size = 5;
    EXPECT_EQ(fingerprint(verify(g, opt)), want) << "jobs " << jobs;
  }
}

// A wide gadget with one seeded leak on the very first observable: output
// share c0 = a0 ^ a1 recombines the secret, followed by a long tail of
// properly blinded wires.  The first shard fails immediately; everything
// after it can only be skipped or abandoned.
Gadget wide_flawed(int tail) {
  GadgetBuilder b("wide_flawed");
  const auto a = b.secret("a", 2);
  const auto r = b.randoms("r", tail);
  std::vector<WireId> blinded;
  for (int i = 0; i < tail; ++i)
    blinded.push_back(b.xor_(a[i % 2], r[static_cast<std::size_t>(i)],
                             "m" + std::to_string(i)));
  const WireId leak = b.xor_(a[0], a[1], "leak");  // the seeded flaw
  b.output_group("c", {leak, b.buf(blinded[0], "c1")});
  return b.build();
}

TEST(Parallel, CounterexampleCancelsRemainingShards) {
  const Gadget g = wide_flawed(48);
  VerifyOptions opt;
  opt.notion = Notion::kProbing;
  opt.order = 1;

  opt.jobs = 1;
  const VerifyResult serial = verify(g, opt);
  ASSERT_FALSE(serial.secure);
  const std::uint64_t total =
      count_combinations_up_to(static_cast<int>(serial.stats.num_observables),
                               opt.order);

  opt.jobs = 4;
  opt.shard_size = 2;  // many shards after the failing one
  // Worker 0's Driver is built on the calling thread, so it reaches the
  // leak in shard 0 while the other workers are still thawing the frozen
  // basis into their managers; the rest of the probe space should not all
  // be enumerated.  That is a race we can lose under scheduler pressure
  // (the other workers may drain every shard before the cancel flag
  // lands), so the cancellation evidence only has to show up in one of a
  // few attempts — the deterministic-merge assertion holds on every one.
  bool cancelled_early = false;
  for (int attempt = 0; attempt < 5 && !cancelled_early; ++attempt) {
    const VerifyResult parallel = verify(g, opt);
    ASSERT_EQ(fingerprint(parallel), fingerprint(serial));
    cancelled_early = parallel.stats.combinations < total &&
                      parallel.stats.parallel.shards_skipped +
                              parallel.stats.parallel.shards_abandoned >=
                          1u;
  }
  EXPECT_TRUE(cancelled_early)
      << "no run out of 5 short-circuited the probe space";
}

// An external cancel() (the daemon's abandoned request) stops the run as
// timed out at every worker count: no counterexample, no coverage claimed.
TEST(Parallel, ExternalCancelStopsEveryWorkerCount) {
  const Gadget g = gadgets::by_name("dom-2");
  const circuit::Unfolded u = circuit::unfold(g);
  const ObservableSet obs = build_observables(g, u, {});
  const std::shared_ptr<const Basis> basis =
      build_basis(u, obs, EngineKind::kDIRECT);
  for (int jobs : {1, 4}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.jobs = jobs;
    sched::CancelToken cancel;
    cancel.cancel();
    const VerifyResult r = verify_basis(basis, opt, &cancel);
    EXPECT_TRUE(r.timed_out) << "jobs " << jobs;
    EXPECT_FALSE(r.counterexample.has_value()) << "jobs " << jobs;
    EXPECT_EQ(r.stats.combinations, 0u) << "jobs " << jobs;
  }
}

// A failure folded in while a combination ordered before it is still
// unchecked is not known to be the canonical witness: the run finalizes as
// timed out with the visited counters.  Once every combination ordered
// before the failure is covered, it is the insecure verdict with canonical
// counters.  Depth-first, the two-element combinations {a, b} with a < 4
// precede the singleton {4}.
TEST(Parallel, UncheckedCombinationBeforeTheWitnessTimesOut) {
  const Gadget g = gadgets::by_name("dom-2");
  const circuit::Unfolded u = circuit::unfold(g);
  const ObservableSet obs = build_observables(g, u, {});
  const std::shared_ptr<const Basis> basis =
      build_basis(u, obs, EngineKind::kDIRECT);
  const int n = static_cast<int>(basis->size());
  VerifyOptions opt;
  opt.engine = EngineKind::kDIRECT;  // the assembler takes resolved options
  opt.notion = Notion::kPINI;
  opt.order = 2;

  const auto shard = [](int k, std::uint64_t begin, std::uint64_t end,
                        std::uint64_t covered_end) {
    PartialReport part;
    part.k = k;
    part.begin = begin;
    part.end = end;
    part.covered_end = covered_end;
    part.complete = covered_end == end;
    part.combinations = covered_end - begin;
    return part;
  };
  PartialReport singles = shard(1, 0, static_cast<std::uint64_t>(n), 5);
  singles.complete = true;  // stopped at its own failure
  singles.has_failure = true;
  singles.fail_rank = 4;
  singles.fail_reason = "planted";
  const std::uint64_t before = count_lex_before(n, 2, {4});
  ASSERT_GT(before, 40u);

  ReportAssembler cut(basis, opt);
  cut.add(singles);
  cut.add(shard(2, 0, 40, 10));  // the deadline fired mid-shard
  const VerifyResult timed_out = cut.finalize();
  EXPECT_TRUE(timed_out.timed_out);
  EXPECT_FALSE(timed_out.counterexample.has_value());
  EXPECT_EQ(timed_out.stats.combinations, 15u);

  ReportAssembler whole(basis, opt);
  whole.add(singles);
  whole.add(shard(2, 0, 40, 40));
  whole.add(shard(2, 40, before, before));
  const VerifyResult insecure = whole.finalize();
  EXPECT_FALSE(insecure.timed_out);
  EXPECT_FALSE(insecure.secure);
  ASSERT_TRUE(insecure.counterexample.has_value());
  EXPECT_EQ(insecure.counterexample->observables,
            std::vector<std::string>{basis->obs[4].name});
  EXPECT_EQ(insecure.stats.combinations, 4 + before + 1);
}

// Whatever the deadline, a --time-limit run reports either a timeout or
// the unlimited run's verdict, witness and counters.  dom-2 fails 2-PINI at
// a pair depth-first, and a singleton ordered after that pair fails too —
// the executor checks the singletons first, so it meets that one first.
TEST(Parallel, TimeLimitNeverReportsANonCanonicalWitness) {
  const Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kPINI;
  opt.order = 2;
  opt.jobs = 1;
  const VerifyResult full = verify(g, opt);
  ASSERT_FALSE(full.secure);
  ASSERT_EQ(full.counterexample->observables.size(), 2u);
  opt.order = 1;
  ASSERT_FALSE(verify(g, opt).secure);
  opt.order = 2;

  for (int jobs : {1, 4}) {
    opt.jobs = jobs;
    for (double limit = 2e-5; limit < 5e-3; limit *= 1.5) {
      opt.time_limit = limit;
      const VerifyResult r = verify(g, opt);
      if (r.timed_out) continue;
      EXPECT_EQ(fingerprint(r), fingerprint(full))
          << "jobs " << jobs << ", limit " << limit;
      EXPECT_EQ(r.stats.combinations, full.stats.combinations)
          << "jobs " << jobs << ", limit " << limit;
      EXPECT_EQ(r.stats.qinfo_entries, full.stats.qinfo_entries)
          << "jobs " << jobs << ", limit " << limit;
    }
  }
}

// --time-limit must fire *mid-enumeration*, not only between sizes: a tiny
// budget on a 25k-combination space has to come back partial.
TEST(Parallel, TimeLimitFiresMidEnumerationSerial) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 0.005;
  opt.jobs = 1;
  const VerifyResult r = verify(gadgets::by_name("keccak-3"), opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.stats.combinations, 25425u);  // C(225,1) + C(225,2)
}

TEST(Parallel, TimeLimitFiresMidEnumerationParallel) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 0.005;
  opt.jobs = 4;
  const VerifyResult r = verify(gadgets::by_name("keccak-3"), opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_LT(r.stats.combinations, 25425u);
}

TEST(Parallel, TimeLimitFiresInBruteforce) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 3;
  opt.time_limit = 0.002;
  const VerifyResult r =
      verify_bruteforce(gadgets::by_name("dom-3"), opt);
  EXPECT_TRUE(r.timed_out);
}

TEST(Parallel, TimeLimitFiresInHeuristic) {
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.time_limit = 0.002;
  const HeuristicResult r =
      verify_heuristic(gadgets::by_name("keccak-3"), opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.proven_secure);
}

// jobs = 0 resolves to the hardware thread count and must behave like any
// other worker count; the *resolved* count (sched::default_jobs) is what
// the report records, never the literal 0.
TEST(Parallel, JobsZeroUsesHardwareConcurrency) {
  const Gadget g = gadgets::by_name("dom-2");
  VerifyOptions opt;
  opt.notion = Notion::kSNI;
  opt.order = 2;
  opt.jobs = 1;
  const std::string want = fingerprint(verify(g, opt));
  opt.jobs = 0;
  const VerifyResult r = verify(g, opt);
  EXPECT_EQ(fingerprint(r), want);
  EXPECT_GE(r.stats.parallel.jobs, 1);
  EXPECT_EQ(r.stats.parallel.jobs, sched::default_jobs(0));
  EXPECT_EQ(sched::default_jobs(0), sched::Pool::hardware_threads());
  EXPECT_EQ(r.stats.parallel.workers.size(),
            static_cast<std::size_t>(r.stats.parallel.jobs));
}

// Every engine shares one read-only Basis across the pool: no worker may
// replay the unfolding, and the verdict/witness must not depend on the
// worker count.  The scan engines need nothing beyond the Basis...
TEST(Parallel, ScanEnginesShareBasisWithoutReplay) {
  const Gadget g = gadgets::by_name("dom-2");
  for (EngineKind engine : {EngineKind::kLIL, EngineKind::kMAP}) {
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = 2;
    opt.engine = engine;
    opt.jobs = 1;
    const std::string want = fingerprint(verify(g, opt));
    for (int jobs : {2, 4}) {
      opt.jobs = jobs;
      opt.shard_size = 7;
      const VerifyResult r = verify(g, opt);
      EXPECT_EQ(fingerprint(r), want)
          << engine_name(engine) << " jobs " << jobs;
      EXPECT_TRUE(r.stats.parallel.shared_basis)
          << engine_name(engine) << " jobs " << jobs;
      EXPECT_EQ(r.stats.parallel.replays, 0u)
          << engine_name(engine) << " jobs " << jobs;
      for (const WorkerStats& w : r.stats.parallel.workers)
        EXPECT_EQ(w.replays, 0u) << engine_name(engine) << " jobs " << jobs;
    }
  }
}

// ...and the ADD engines (MAPI, FUJITA) thaw the Basis' frozen forest into
// their private managers — the per-worker unfolding replays of the old
// runtime are gone for them too.  Verdicts and witnesses stay byte-identical
// to the serial run on every registry gadget.
TEST(Parallel, AddEnginesShareBasisWithoutReplay) {
  struct Case {
    std::string gadget;
    EngineKind engine;
    int order;
  };
  std::vector<Case> cases;
  // Every registry gadget, both ADD engines, at order 1 (FUJITA transforms
  // per combination, so depth 2 everywhere would dominate the suite)...
  for (const std::string& name : gadgets::all_names())
    for (EngineKind engine : {EngineKind::kMAPI, EngineKind::kFUJITA})
      cases.push_back({name, engine, 1});
  // ...plus full-depth coverage on the small gadgets.
  for (const char* name : {"dom-1", "isw-2", "ti-1", "dom-2"})
    for (EngineKind engine : {EngineKind::kMAPI, EngineKind::kFUJITA})
      cases.push_back({name, engine, 2});

  for (const Case& c : cases) {
    const Gadget g = gadgets::by_name(c.gadget);
    VerifyOptions opt;
    opt.notion = Notion::kSNI;
    opt.order = c.order;
    opt.engine = c.engine;
    opt.jobs = 1;
    const std::string want = fingerprint(verify(g, opt));
    for (int jobs : {2, 4}) {
      opt.jobs = jobs;
      opt.shard_size = 7;
      const VerifyResult r = verify(g, opt);
      EXPECT_EQ(fingerprint(r), want) << c.gadget << " order " << c.order
                                      << " " << engine_name(c.engine)
                                      << " jobs " << jobs;
      EXPECT_TRUE(r.stats.parallel.shared_basis)
          << c.gadget << " " << engine_name(c.engine) << " jobs " << jobs;
      EXPECT_EQ(r.stats.parallel.replays, 0u)
          << c.gadget << " " << engine_name(c.engine) << " jobs " << jobs;
      EXPECT_GT(r.stats.frozen_nodes, 0u)
          << c.gadget << " " << engine_name(c.engine);
      for (const WorkerStats& w : r.stats.parallel.workers)
        EXPECT_EQ(w.replays, 0u)
            << c.gadget << " " << engine_name(c.engine) << " jobs " << jobs;
    }
  }
}

// Cross-engine parallel agreement: every engine returns the same verdict and
// the same failing combination (the witness coordinate may legitimately
// differ between representations) under both search orders and any job
// count.
TEST(Parallel, CrossEngineAgreementBothSearchOrders) {
  constexpr EngineKind kEngines[] = {EngineKind::kLIL, EngineKind::kMAP,
                                     EngineKind::kMAPI, EngineKind::kFUJITA};
  for (const char* name : {"ti-1", "dom-1", "refresh-3", "isw-2"}) {
    const Gadget g = gadgets::by_name(name);
    for (int order : {1, 2}) {
      for (SearchOrder search :
           {SearchOrder::kDepthFirst, SearchOrder::kLargestFirst}) {
        bool have_ref = false;
        bool ref_secure = false;
        std::vector<std::string> ref_combo;
        for (EngineKind engine : kEngines) {
          VerifyOptions opt;
          opt.notion = Notion::kSNI;
          opt.order = order;
          opt.engine = engine;
          opt.search_order = search;
          opt.jobs = 1;
          const VerifyResult serial = verify(g, opt);
          const std::string want = fingerprint(serial);
          for (int jobs : {2, 4}) {
            opt.jobs = jobs;
            opt.shard_size = 5;
            EXPECT_EQ(fingerprint(verify(g, opt)), want)
                << name << " order " << order << " "
                << engine_name(engine) << " jobs " << jobs;
          }
          const std::vector<std::string> combo =
              serial.counterexample ? serial.counterexample->observables
                                    : std::vector<std::string>{};
          if (!have_ref) {
            have_ref = true;
            ref_secure = serial.secure;
            ref_combo = combo;
          } else {
            EXPECT_EQ(serial.secure, ref_secure)
                << name << " order " << order << " " << engine_name(engine);
            EXPECT_EQ(combo, ref_combo)
                << name << " order " << order << " " << engine_name(engine);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sani::verify
