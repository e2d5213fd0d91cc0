#pragma once
// Union-check dependency table.
//
// The set-level union pass needs, for every passing combination Q, the
// dependency mask V accumulated from Q's rows: one share-space mask, since
// the secrets' share groups are disjoint and V & secret_vars[s] recovers
// secret s's set.  A shard records them for exactly its contiguous passing
// prefix, in rank order — so the table keeps each shard's masks as one run
// of consecutive ranks and never stores a rank, a key or a row: the rank of
// an entry is implied by its position in its run.  Runs are kept sorted by
// (size, first rank); within a size class they are disjoint (every
// combination belongs to exactly one shard), so one forward walk reads
// every entry in (size, rank) order.  bytes() feeds the qinfo fields of
// VerifyStats.

#include <cstdint>
#include <vector>

#include "util/mask.h"

namespace sani::verify {

class DepTable {
 public:
  /// Size-k combinations [begin, begin + masks.size()), one mask each.
  struct Run {
    int k;
    std::uint64_t begin;
    std::vector<Mask> masks;

    std::uint64_t end() const { return begin + masks.size(); }
  };

  /// Records size-k combinations [begin, begin + masks.size()).
  void add_run(int k, std::uint64_t begin, std::vector<Mask> masks);

  const std::vector<Run>& runs() const { return runs_; }
  std::vector<Run> take_runs() { return std::move(runs_); }

  /// Recorded combinations.
  std::size_t size() const { return entries_; }

  /// Heap footprint of the masks and run records (the table only grows, so
  /// this is also its peak).
  std::size_t bytes() const { return bytes_; }

  /// Records of size k whose rank lies below `bound[k]` (sizes beyond the
  /// bound vector count nothing) — how many entries a search order places
  /// before a given combination (verify/partial.cpp).
  std::size_t count_ranks_below(const std::vector<std::uint64_t>& bound) const;

 private:
  std::vector<Run> runs_;  // sorted by (k, begin)
  std::size_t entries_ = 0;
  std::size_t bytes_ = 0;
};

/// The union pass's outcome over one DepTable, as a cone summary records
/// it: a table that passed may skip the pass when a later run rebuilds the
/// same table (verify/partial.h, ReportAssembler); a failed or unrecorded
/// pass always re-runs, so witnesses are computed, never replayed.
struct UnionVerdict {
  enum class State : std::uint8_t { kUnrecorded, kPassed, kFailed };
  State state = State::kUnrecorded;
  /// The pass's closure peak (added to qinfo_peak_bytes on replay too).
  std::uint64_t closure_peak_bytes = 0;
};

}  // namespace sani::verify
