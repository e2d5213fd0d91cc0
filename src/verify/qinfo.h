#pragma once
// Union-check dependency store (flat arena keyed by combination rank).
//
// The set-level union pass needs, for every passing combination Q, the
// per-secret dependency masks V accumulated from Q's rows.  The naive
// std::map<std::vector<int>, QInfo> pays a node allocation plus a key
// vector per combination; this store keeps the QInfo records in one flat
// arena and keys them by the combination's lexicographic rank in the
// combinatorial number system (rank << 6 | k — k < 64 always holds, the
// enumeration order is bounded far below that), so lookups are one hash
// probe and the footprint is measurable: bytes()/peak_bytes() feed the
// qinfo fields of VerifyStats.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/mask.h"
#include "verify/checker.h"

namespace sani::verify {

/// Per-combination dependency data for the set-level union check.
struct QInfo {
  RowContext row;
  std::vector<Mask> V;  // per-secret deps of rows covering exactly this Q
};

/// Each combination is checked exactly once across all shards, so
/// per-worker stores have disjoint key sets and merge trivially.
class QInfoStore {
 public:
  QInfoStore() = default;
  explicit QInfoStore(int num_observables) : n_(num_observables) {}

  /// Records the size-k combination of lexicographic rank `rank`.
  void insert(int k, std::uint64_t rank, QInfo info);

  /// The record of `combo`, or null if it was never inserted.
  const QInfo* find(const std::vector<int>& combo) const;

  std::size_t size() const { return arena_.size(); }

  /// Approximate heap footprint of the arena + index.
  std::size_t bytes() const { return bytes_; }
  std::size_t peak_bytes() const { return peak_bytes_; }

  /// Folds `other`'s records in (disjoint key sets across shards).
  void merge_from(const QInfoStore& other);

  /// Records of size k whose rank lies below `bound[k]` (sizes beyond the
  /// bound vector count nothing) — how many entries a search order places
  /// before a given combination (verify/partial.cpp).
  std::size_t count_ranks_below(const std::vector<std::uint64_t>& bound) const;

  /// Stored combinations decoded back to index vectors, in lexicographic
  /// vector order — the iteration order of the old per-path std::map, which
  /// the union pass's witness determinism depends on.
  std::vector<std::vector<int>> sorted_combos() const;

 private:
  std::uint64_t key_of(const std::vector<int>& combo) const;
  void account(const QInfo& info);

  int n_ = 0;
  std::vector<QInfo> arena_;
  std::vector<std::uint64_t> keys_;  // parallel to arena_
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::size_t bytes_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace sani::verify
