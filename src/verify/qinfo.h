#pragma once
// Union-check dependency table.
//
// The set-level union pass needs, for every passing combination Q, the
// per-secret dependency masks V accumulated from Q's rows.  A shard records
// them for exactly its contiguous passing prefix, in rank order, S masks
// (S = number of secrets) per combination — so the table keeps each
// shard's masks as one run of consecutive ranks and never stores a rank,
// a key or a row: the rank of an entry is implied by its position in its
// run.  Runs are kept sorted by (size, first rank); within a size class
// they are disjoint (every combination belongs to exactly one shard), so
// one forward walk reads every entry in (size, rank) order.  bytes() feeds
// the qinfo fields of VerifyStats.

#include <cstdint>
#include <vector>

#include "util/mask.h"

namespace sani::verify {

class DepTable {
 public:
  /// Size-k combinations [begin, begin + count), S masks each.
  struct Run {
    int k;
    std::uint64_t begin;
    std::uint64_t count;
    std::vector<Mask> masks;  // count * S
  };

  DepTable() = default;
  explicit DepTable(std::size_t num_secrets) : s_(num_secrets) {}

  /// Records size-k combinations [begin, begin + masks.size() / S).
  void add_run(int k, std::uint64_t begin, std::vector<Mask> masks);

  std::size_t num_secrets() const { return s_; }
  const std::vector<Run>& runs() const { return runs_; }

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
  std::size_t s_ = 0;
  std::vector<Run> runs_;  // sorted by (k, begin)
  std::size_t entries_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace sani::verify
