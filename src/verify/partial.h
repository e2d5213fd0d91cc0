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
// (combo_before), summed counters, and the one QInfoStore holding every
// recorded dependency entry — and finalize() renders it.  It is the only
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

/// The RowContext of a combination: a pure function of the observables'
/// kinds, so a partial deserialized from disk (which ships only rank + V
/// per dependency entry) reconstructs exactly the record a live worker
/// would have handed over.
RowContext context_for_combo(const Basis& basis, const std::vector<int>& combo);

/// The set-level union pass over a dependency store: for every recorded
/// combination Q, folds V over all sub-combinations of Q and applies the
/// notion's set-level condition.  sorted_combos() restores the serial
/// iteration order, so the witness (the first violating Q) is independent
/// of how the store was populated.  Pure mask arithmetic end to end — no
/// backend, no DD manager — which is what lets ReportAssembler::finalize
/// run it without thawing the frozen forest.  `cancel` (optional) turns a
/// fired deadline into result.timed_out, exactly as the in-driver pass
/// does.
void union_pass(const Basis& basis, const Checker& checker,
                const QInfoStore& qinfo, sched::CancelToken* cancel,
                VerifyResult& result);

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

  /// Union-check dependency record of one passing size-k combination.
  /// `row` is recomputable from the basis (see ReportAssembler::add), so
  /// the serialized form (store/manifest.h) carries only rank + V.
  struct Dep {
    std::uint64_t rank = 0;
    RowContext row;
    std::vector<Mask> V;
  };
  std::vector<Dep> deps;  // rank-ascending (shards check in rank order)
};

/// Deterministic, associative fold over PartialReports.
///
/// add() is commutative and associative in the merged *semantic* state:
/// the best failure is the minimum of an associative min (combo_before is a
/// strict total order on combinations), counters are sums, and the QInfo
/// entries of distinct shards are disjoint (each combination belongs to
/// exactly one shard), so insertion order cannot change the store's
/// contents — only the arena layout, which sorted_combos() canonicalizes
/// before the union pass reads it.  Hence any completion order, worker
/// count or engine mixture finalizes to the same report.
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

  const QInfoStore& qinfo() const { return qinfo_; }

  std::uint64_t combinations() const { return combinations_; }
  std::uint64_t coefficients() const { return coefficients_; }
  const CacheStats& region_cache() const { return region_cache_; }
  std::size_t parts() const { return parts_; }

  /// Renders the canonical merged result in the serial report shape:
  /// counters summed, the one-time basis build credited once, the
  /// canonical phase set (thaw for the ADD engines / base / convolution /
  /// verification / union) independent of which engines produced the
  /// partials, and — when every combination passed and the notion has a
  /// set-level condition — the union pass over the merged dependency store
  /// (polling `cancel`'s deadline, when given).  An insecure verdict with
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
  /// Checked rank range [begin, end) of every folded partial's size class.
  struct Covered {
    int k;
    std::uint64_t begin;
    std::uint64_t end;
  };
  std::vector<Covered> covered_;
  QInfoStore qinfo_;
  std::uint64_t combinations_ = 0;
  std::uint64_t coefficients_ = 0;
  CacheStats region_cache_;
  double convolution_seconds_ = 0.0;
  double verification_seconds_ = 0.0;
  std::size_t parts_ = 0;
};

}  // namespace sani::verify
