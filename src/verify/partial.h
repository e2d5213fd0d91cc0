#pragma once
// Mergeable per-shard verification results.
//
// A PartialReport is the complete, self-contained outcome of checking one
// rank-range shard (sched::Shard) against a prepared verify::Basis: the
// shard's locally-first failure (if any), its counter deltas, and the
// union-check dependency masks of its passing combinations.  Crucially it
// is a pure function of (Basis content, semantic options, shard) — a shard
// runs to its own end or its own first failure, never cut short by another
// shard's findings — so producing the same shard twice yields the same
// partial, whoever (and whichever engine) ran it.  That purity is what
// makes the cross-process checkpoint protocol (store/manifest.h) safe
// against duplicated claims and what makes the merge below associative.
//
// ReportAssembler folds partials in any order into the canonical merged
// state — the order-minimal failing combination under the search order
// (combo_before), summed counters, and the one DepTable holding every
// recorded dependency run — and finalize() renders it.  It is the only
// renderer of a verification result, with two feeders:
//
//  * the in-process shard executor (verify/parallel.h), for every --jobs
//    value: workers emit one partial per shard and the executor folds them
//    as they complete;
//  * the manifest-driven scan (store/scan.h) — partials are checkpointed
//    to disk (SANIPAR framing) and folded from whatever mixture of
//    processes, worker counts and engines produced them.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/shard.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/checker.h"
#include "verify/qinfo.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {

/// The search order's total order on combinations (depth-first: plain
/// lexicographic vector order; largest-first: sizes descending, then
/// lexicographic).  The merged witness is the minimum failing combination
/// under this order — the first failure a walk in that order would meet.
bool combo_before(const std::vector<int>& a, const std::vector<int>& b,
                  bool largest_first);

/// The set-level union pass over a dependency table: for every recorded
/// combination Q, the closed V(Q) — the union of the recorded masks of
/// every nonempty sub-combination of Q — is tested against the notion's
/// set-level condition.  Closed V is built one size class at a time,
/// Vc(Q) = own(Q) | OR_j Vc(Q \ {j}), so each Q costs k rank lookups into
/// the previous class, and only that class's closure is held while the
/// next is tested (the top class is tested on the fly, never stored).  The
/// witness is the lexicographically least violating Q over all sizes, so it
/// is independent of how the table was populated.  Pure mask arithmetic —
/// no backend, no DD manager — which is what lets ReportAssembler::finalize
/// run it without thawing the frozen forest.  Adds the closure's peak
/// bytes to result.stats.qinfo_peak_bytes.  `cancel` (optional) turns a
/// fired deadline into result.timed_out.
void union_pass(const Basis& basis, const Checker& checker,
                const DepTable& deps, sched::CancelToken* cancel,
                VerifyResult& result);

/// Size-k ranks [begin, end), checked in rank order: every rank passed
/// except, when `failed`, the last one, whose per-row witness is (alpha,
/// reason).  `masks` holds the passing prefix's dependency masks, one per
/// rank from `begin`, where a cone summary keeps them (verify/incremental.h);
/// the assembler keeps them in its DepTable instead.
struct CheckedRun {
  int k = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool failed = false;
  Mask alpha;
  std::string reason;
  std::vector<Mask> masks;

  std::uint64_t passes() const { return end - begin - (failed ? 1 : 0); }
};

/// Outcome of one shard.  Engine-invariant fields (the failure, the
/// dependency masks, `combinations`) are what the deterministic merge
/// consumes; the counter/timing fields ride along for the informative
/// (non-deterministic) report and are zeroed by --deterministic-report.
struct PartialReport {
  int k = 0;                     // combination size of the shard
  std::uint64_t begin = 0;       // planned rank range [begin, end)
  std::uint64_t end = 0;
  /// Ranks actually checked: [begin, covered_end).  Equal to `end` when the
  /// shard ran to completion, fail_rank + 1 when it stopped at its local
  /// failure, less when it was abandoned mid-shard (in-process cancellation
  /// only — checkpoints always persist complete shards).
  std::uint64_t covered_end = 0;
  /// True when the shard's outcome is final: full coverage, or coverage up
  /// to and including its locally-first failure.
  bool complete = false;

  bool has_failure = false;
  std::uint64_t fail_rank = 0;  // rank of the locally-first failing combo
  Mask fail_alpha;
  std::string fail_reason;

  std::uint64_t combinations = 0;  // checked in this shard
  std::uint64_t coefficients = 0;
  CacheStats region_cache;
  double convolution_seconds = 0.0;
  double verification_seconds = 0.0;

  /// Union-check dependency masks of the passing combinations, one each,
  /// for exactly the contiguous passing prefix [begin, begin + deps.size()):
  /// a shard checks in rank order and stops at its first failure, so the
  /// ranks are implied.
  std::vector<Mask> deps;
};

/// Deterministic, associative fold over PartialReports.
///
/// add() is commutative and associative in the merged *semantic* state:
/// the best failure is the minimum of an associative min (combo_before is a
/// strict total order on combinations), counters are sums, and the
/// dependency runs of distinct shards are disjoint (each combination
/// belongs to exactly one shard) and kept sorted by first rank, so
/// insertion order cannot change the table.  Hence any completion order,
/// worker count or engine mixture finalizes to the same report.
class ReportAssembler {
 public:
  /// `options` are the canonical semantic options of the scan (notion,
  /// order, engine, union_check, search_order...); held by value so the
  /// assembler can outlive the caller's copy.
  ReportAssembler(std::shared_ptr<const Basis> basis, VerifyOptions options);
  ~ReportAssembler();

  /// Folds one partial in.  Not thread-safe; callers serialize (the
  /// in-process controller folds under its merge mutex).
  void add(PartialReport part);

  /// Overrides the basis-derived report fields (frozen forest size, one-time
  /// base coefficients and build time) with a canonical snapshot.  The
  /// manifest scan records these at plan time, so a worker that rebuilt the
  /// basis with wider needs (a different engine's material enlarges the
  /// frozen forest) cannot perturb the finalized report.
  void set_basis_stats(std::uint64_t frozen_nodes, std::uint64_t frozen_bytes,
                       std::uint64_t base_coefficients, double build_seconds);

  bool has_failure() const { return best_.has_value(); }
  /// The order-minimal failing combination so far (valid when
  /// has_failure()).
  const std::vector<int>& failure_combo() const { return best_->combo; }
  /// The witness of the order-minimal failure, decoded against the basis.
  CounterExample failure_counterexample() const;

  /// Hand over each folded partial's checked range and failure (in fold
  /// order, masks empty) and the dependency table, for the incremental
  /// summary (verify/incremental.h); call after finalize().
  std::vector<CheckedRun> take_covered() { return std::move(covered_); }
  DepTable take_deps() { return std::move(deps_); }

  /// Union-verdict replay: finalize() takes `verdict`, a recorded pass,
  /// instead of running the union pass.  The caller vouches that the merged
  /// table is the one the verdict was recorded for (every combination
  /// replayed from that summary at its order, every cone reused —
  /// verify/incremental.h, IncrementalPlan::replayable_union_verdict).
  void replay_union_verdict(const UnionVerdict& verdict) {
    replay_union_ = verdict;
  }

  /// The union pass's outcome in finalize() (unrecorded when the pass did
  /// not run to a verdict), and whether it was replayed.
  const UnionVerdict& union_verdict() const { return union_verdict_; }
  bool union_replayed() const { return union_replayed_; }

  std::uint64_t combinations() const { return combinations_; }
  std::uint64_t coefficients() const { return coefficients_; }
  const CacheStats& region_cache() const { return region_cache_; }
  std::size_t parts() const { return parts_; }

  /// Renders the canonical merged result in the serial report shape:
  /// counters summed, the one-time basis build credited once, the
  /// canonical phase set (thaw for the ADD engines / base / convolution /
  /// verification / union) independent of which engines produced the
  /// partials, and — when every combination passed and the notion has a
  /// set-level condition — the union pass over the merged dependency table
  /// (polling `cancel`'s deadline, when given), or the replayed verdict of
  /// an identical table (replay_union_verdict).  An insecure verdict with
  /// witness combination F reports the search order's canonical counters:
  /// `combinations` counts the combinations ordered at or before F and
  /// `qinfo_entries` the dependency records ordered before F — what a walk
  /// that stops at F would have seen, however far past F the shards ran.
  /// Partials that leave a combination unchecked — before F, or anywhere
  /// when nothing failed — mean the run stopped early: the result is timed
  /// out, with the visited counters.  The result is a pure
  /// function of the folded partials and the basis content (timing fields
  /// aside, which --deterministic-report zeroes), so any run that drained
  /// the same shard plan finalizes byte-identically.
  VerifyResult finalize(sched::CancelToken* cancel = nullptr);

 private:
  struct BestFailure {
    std::vector<int> combo;
    Mask alpha;
    std::string reason;
  };

  struct BasisStats {
    std::uint64_t frozen_nodes;
    std::uint64_t frozen_bytes;
    std::uint64_t base_coefficients;
    double build_seconds;
  };

  std::shared_ptr<const Basis> basis_;
  VerifyOptions options_;
  std::optional<BasisStats> basis_stats_;
  std::optional<BestFailure> best_;
  std::vector<CheckedRun> covered_;
  DepTable deps_;
  std::optional<UnionVerdict> replay_union_;
  UnionVerdict union_verdict_;
  bool union_replayed_ = false;
  std::uint64_t combinations_ = 0;
  std::uint64_t coefficients_ = 0;
  CacheStats region_cache_;
  double convolution_seconds_ = 0.0;
  double verification_seconds_ = 0.0;
  std::size_t parts_ = 0;
};

}  // namespace sani::verify
