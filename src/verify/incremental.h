#pragma once
// Diff-aware incremental re-verification (cone-keyed verdict caching).
//
// A ConeSummary is the distilled outcome of one finished scan: the function
// digest of every observable (circuit/cone_hash.h) and the runs of ranks
// the scan checked — each a contiguous passing prefix, possibly ended by a
// failure, with the dependency masks the set-level union pass consumed.  A
// shard checks in rank order and stops at its first failure, so the runs
// are exactly the folded shard partials (verify/partial.h), coalesced.  On
// resubmission of an edited gadget, an IncrementalPlan maps each new
// observable to its digest-equal predecessor and decides, once per step of
// the enumeration, whether the combination at hand is
//
//   * a replayed pass   — all members map and the old run passed the
//                         mapped rank: replay the verdict, and as many
//                         following passes as the plan can vouch for (and
//                         splice their dependency masks into the union
//                         table);
//   * a replayed failure — same, but the mapped rank failed: replay the
//                         recorded witness;
//   * a check           — anything else: re-check for real.
//
// Digest equality implies equal member functions and an equal observable
// role (a Merkle hash over each member's BDD), and a varmap fingerprint
// guards that both runs bind roles to the same dd variables, so a replayed
// verdict is exactly what a cold check would have computed — after any
// function-preserving edit too: verdicts, witnesses and deterministic
// reports are byte-identical to a cold run (the incremental correctness
// gate in tests/incremental_test.cpp), only the work differs.  The
// dependency masks are engine-invariant (every backend accumulates the
// same semantic share set), so summaries transfer across engines.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/cone_hash.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/partial.h"
#include "verify/qinfo.h"
#include "verify/types.h"

namespace sani::verify {

/// Per-cone verdict summary of one scan — complete, or the checked prefix
/// of a timed-out run (ranks no run holds are re-checked on replay).
/// Serialized by store/serial.h (SANISUM framing); bump
/// store::kSummaryFormatVersion on any layout change.
struct ConeSummary {
  // Semantic guards: a summary only seeds runs with identical notion
  // semantics.  (The engine is deliberately absent — verdicts and
  // dependency masks are engine-invariant.)
  Notion notion = Notion::kSNI;
  bool glitch_robust = false;
  bool joint_share_count = false;
  bool union_check = true;
  int order = 0;                   // max combination size covered
  circuit::ConeDigest varmap;      // role→variable binding fingerprint
  std::vector<circuit::ConeDigest> digests;  // per old observable

  /// The runs of ranks the scan checked, each with the dependency masks of
  /// its passing prefix (empty when the scan recorded none: a union-free
  /// notion).  Union-pass failures are not recorded: the pass re-runs from
  /// the replayed masks.
  using Run = CheckedRun;
  /// Sorted by (k, begin) and disjoint, k in [1, order]; a run without a
  /// failure never ends where the next one begins (they are coalesced), so
  /// the runs are a function of the scan's outcome, not of its shard plan.
  std::vector<Run> runs;

  /// The union pass's outcome over the masks in the run that wrote this
  /// summary (unrecorded when the pass did not run to a verdict).
  UnionVerdict union_verdict;
};

/// Assembles the summary of a finished scan from the basis' cone index and
/// what `assembler` folded — each partial's checked range and failure, its
/// dependency masks (taken over as is) and the union pass's verdict —
/// coalescing adjacent runs.  Call after finalize().
ConeSummary make_summary(const Basis& basis, const VerifyOptions& options,
                         ReportAssembler&& assembler);

/// Total ranks the summary's runs hold — the coverage a seeded run can
/// replay.  A timed-out run publishes the summary of its completed prefix,
/// but only when this count beats the family head's, so republishing never
/// shrinks coverage.
std::uint64_t summary_checked_count(const ConeSummary& summary);

/// The replay decision one run scans against.  Immutable after build();
/// step() takes a caller-owned scratch vector so parallel workers can share
/// one plan without synchronization.
class IncrementalPlan {
 public:
  /// Null when `summary` cannot seed this run: the basis carries no cone
  /// index, the varmap fingerprints differ, or a semantic guard mismatches.
  /// Inequality is always safe — it only costs a cold scan.
  static std::optional<IncrementalPlan> build(
      const Basis& basis, std::shared_ptr<const ConeSummary> summary,
      const VerifyOptions& options);

  struct Step {
    enum class Kind : std::uint8_t { kCheck, kPasses, kFailure };
    Kind kind = Kind::kCheck;
    /// kPasses: the ranks replayed as passes, from the queried one (≥ 1).
    std::uint64_t n = 0;
    /// kPasses on union-checking runs: their n dependency masks, in rank
    /// order (null otherwise).
    const Mask* masks = nullptr;
    /// kFailure: the run whose last rank is the replayed failure.
    const CheckedRun* run = nullptr;
  };

  /// What to do at one combination of *new* observable indices, `rank`
  /// being its lexicographic rank among the new size-|combo| combinations:
  /// check it, replay the failure recorded for it, or replay it and the
  /// passes after it, up to rank `limit` (exclusive).  On a
  /// layout-preserving plan that rank is the old one too, and a replayed
  /// stretch runs to the end of the summary's passing prefix, the end of
  /// its masks and the first combination holding an unmatched cone; on a
  /// remapping plan the members are mapped, sorted and re-ranked in the
  /// old index space (`scratch` is caller-owned) and at most one rank is
  /// replayed.  Thread-safe.
  Step step(const std::vector<int>& combo, std::uint64_t rank,
            std::uint64_t limit, std::vector<int>& scratch) const;

  /// The summary's union verdict when a run at `order` that replays every
  /// combination from it rebuilds exactly the table the verdict was
  /// recorded for — every cone reused at its own index, the same order —
  /// and that verdict is a pass; null otherwise (the pass must run).
  const UnionVerdict* replayable_union_verdict(int order) const;

  /// New observables whose digest matched an old one.
  std::uint64_t cones_reused() const { return cones_reused_; }

  /// True when the summary's observables keep their indices: the same
  /// count, and every matched new observable at its old index.
  bool layout_preserving() const { return layout_preserving_; }

 private:
  std::shared_ptr<const ConeSummary> summary_;
  std::vector<std::int32_t> old_index_;  // per new observable; -1 unmatched
  std::uint64_t cones_reused_ = 0;
  int old_n_ = 0;
  bool need_deps_ = false;
  bool layout_preserving_ = false;
  bool all_matched_ = false;  // layout-preserving and every cone reused
};

/// What the engine layer threads through to the Driver(s): an optional
/// plan to replay against, and an optional sink for the run's summary,
/// left empty when the run replayed every combination from a plan that
/// reused every cone at its own index (the plan's summary already holds
/// everything the run would record).
struct IncrementalContext {
  const IncrementalPlan* plan = nullptr;
  std::optional<ConeSummary>* summary_out = nullptr;
};

}  // namespace sani::verify
