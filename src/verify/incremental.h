#pragma once
// Diff-aware incremental re-verification (cone-keyed verdict caching).
//
// A ConeSummary is the distilled outcome of one finished scan: the function
// digest of every observable (circuit/cone_hash.h), per-size bitmaps of
// which combination ranks were checked and which passed, the per-row
// failures, and the per-combination dependency masks the set-level union
// pass consumed.  On resubmission of an edited gadget, an IncrementalPlan
// maps each new observable to its digest-equal predecessor and classifies
// every combination the enumeration visits:
//
//   * clean-pass  — all members map, the old run checked the mapped rank
//                   and it passed: replay the verdict (and splice the old
//                   dependency masks into the union table);
//   * clean-fail  — same, but it failed: replay the recorded witness;
//   * dirty       — anything else: re-check for real.
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
#include <unordered_map>
#include <vector>

#include "circuit/cone_hash.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/qinfo.h"
#include "verify/types.h"

namespace sani::verify {

/// Per-cone verdict summary of one scan — complete, or the checked prefix
/// of a timed-out run (unchecked ranks stay 0 in the bitmaps and classify
/// as dirty on replay).  Serialized by store/serial.h (SANISUM framing);
/// bump store::kSummaryFormatVersion on any layout change.
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

  /// Verdict bitmaps for size-k combinations, index k-1.  `present` is
  /// false when C(n, k) overflowed the bitmap cap — those sizes are always
  /// re-checked.
  struct Table {
    bool present = false;
    std::uint64_t num_ranks = 0;
    std::vector<std::uint64_t> checked;  // bit r: rank r was enumerated
    std::vector<std::uint64_t> passed;   // bit r: and its per-row check held
  };
  std::vector<Table> tables;

  /// Recorded per-row scan failure (union-pass failures are not recorded:
  /// the union pass re-runs from the replayed dependency masks).
  struct Failure {
    std::int32_t k = 0;
    std::uint64_t rank = 0;
    Mask alpha;
    std::string reason;
  };
  std::vector<Failure> failures;  // sorted by (k, rank)

  /// Dependency masks of the passing combinations, exactly as the scan's
  /// union-check table held them: runs of consecutive ranks of one size k
  /// in [1, order], one mask per combination, ranks implied, runs sorted by
  /// (k, first rank) and disjoint.
  DepTable deps;

  /// The union pass's outcome over `deps` in the run that wrote this
  /// summary (unrecorded when the pass did not run to a verdict).
  UnionVerdict union_verdict;
};

/// Records per-combination outcomes during a scan (cold or incremental) so
/// a fresh summary can be written afterwards.  Parallel workers each own
/// one and the controller merges them — the bitmap unions are disjoint
/// because every combination is checked exactly once across shards.
class SummaryCollector {
 public:
  SummaryCollector(int num_observables, int order);

  /// Outcomes of the size-k combination of lexicographic rank `rank`.
  void note_pass(int k, std::uint64_t rank) { note(k, rank, true); }
  /// Passes of size-k ranks [rank, rank + n), a bitmap word at a time.
  void note_pass_run(int k, std::uint64_t rank, std::uint64_t n);
  void note_fail(int k, std::uint64_t rank, const Mask& alpha,
                 const std::string& reason);
  void merge_from(const SummaryCollector& other);

 private:
  friend ConeSummary make_summary(const Basis& basis,
                                  const VerifyOptions& options,
                                  SummaryCollector&& collector,
                                  DepTable&& deps,
                                  const UnionVerdict& union_verdict);

  void note(int k, std::uint64_t rank, bool passed);

  int n_ = 0;
  int order_ = 0;
  std::vector<ConeSummary::Table> tables_;
  std::vector<ConeSummary::Failure> failures_;
};

/// Assembles the summary of a finished scan from the basis' cone index,
/// the collected verdict bitmaps, the (merged) union-check table, which it
/// takes over as is, and the union pass's verdict over that table.
ConeSummary make_summary(const Basis& basis, const VerifyOptions& options,
                         SummaryCollector&& collector, DepTable&& deps,
                         const UnionVerdict& union_verdict);

/// Total ranks marked checked across the summary's verdict tables — the
/// coverage a seeded run can replay.  A timed-out run publishes the summary
/// of its completed prefix, but only when this count beats the family
/// head's, so republishing never shrinks coverage.
std::uint64_t summary_checked_count(const ConeSummary& summary);

/// The clean/dirty classifier one run scans against.  Immutable after
/// build(); classify() takes a caller-owned scratch vector so parallel
/// workers can share one plan without synchronization.
class IncrementalPlan {
 public:
  /// Null when `summary` cannot seed this run: the basis carries no cone
  /// index, the varmap fingerprints differ, or a semantic guard mismatches.
  /// Inequality is always safe — it only costs a cold scan.
  static std::optional<IncrementalPlan> build(
      const Basis& basis, std::shared_ptr<const ConeSummary> summary,
      const VerifyOptions& options);

  enum class Kind : std::uint8_t { kDirty, kCleanPass, kCleanFail };

  struct Classification {
    Kind kind = Kind::kDirty;
    /// Replayed dependency mask (clean-pass on union-checking runs only).
    const Mask* V = nullptr;
    /// Replayed witness (clean-fail).
    const ConeSummary::Failure* fail = nullptr;
  };

  /// Classifies one combination of *new* observable indices, `rank` being
  /// its lexicographic rank among the new size-|combo| combinations.  On a
  /// layout-preserving plan that rank is the old one too, so only the
  /// members' match flags are read; otherwise the members are mapped, sorted
  /// and re-ranked in the old index space (`scratch` is caller-owned).
  /// Thread-safe.
  Classification classify(const std::vector<int>& combo, std::uint64_t rank,
                          std::vector<int>& scratch) const;

  /// Range replay on a layout-preserving plan: how many consecutive ranks
  /// from `rank` (the rank of `combo`), up to `limit`, classify as clean
  /// passes — checked and passed by the summary, every member matched and,
  /// on union-checking runs, their dependency masks recorded in one run,
  /// whose first mask `*masks` then points at (null otherwise).  0 on a
  /// remapping plan or when `combo` itself is not a clean pass.  The
  /// bitmaps are read a word at a time; the members are walked only when
  /// some cone is unmatched (`scratch` is caller-owned).  Thread-safe.
  std::uint64_t clean_pass_run(const std::vector<int>& combo,
                               std::uint64_t rank, std::uint64_t limit,
                               const Mask** masks,
                               std::vector<int>& scratch) const;

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
  /// The recorded outcome of old size-k rank `rank`.
  Classification lookup(int k, std::uint64_t rank) const;
  /// The summary's dependency run holding old size-k rank `rank`, or null.
  const DepTable::Run* run_holding(int k, std::uint64_t rank) const;

  std::shared_ptr<const ConeSummary> summary_;
  std::vector<std::int32_t> old_index_;  // per new observable; -1 unmatched
  std::uint64_t cones_reused_ = 0;
  int old_n_ = 0;
  bool need_deps_ = false;
  bool layout_preserving_ = false;
  bool all_matched_ = false;  // layout-preserving and every cone reused
  // (rank << 6 | k) lookups.
  std::unordered_map<std::uint64_t, const ConeSummary::Failure*> failures_;
};

/// What the engine layer threads through to the Driver(s): an optional
/// plan to replay against, an optional collector for the fresh summary,
/// and optional sinks for the merged union-check dependency table and the
/// union pass's verdict over it.
struct IncrementalContext {
  const IncrementalPlan* plan = nullptr;
  SummaryCollector* collector = nullptr;
  DepTable* deps_out = nullptr;
  UnionVerdict* union_out = nullptr;
};

}  // namespace sani::verify
