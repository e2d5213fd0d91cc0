#pragma once
// Probe-space sharding for parallel verification.
//
// The verification workload is the enumeration of all C(n, k) combinations
// of observables for k = 1..d (Sec. III of the paper's cost model).  Each
// size-k combination has a lexicographic rank in the combinatorial number
// system (util/combinations), so the whole space factors into contiguous
// rank ranges — shards — that workers execute independently.  Contiguity
// matters twice: within a shard the backend reuses convolution prefixes of
// lexicographically adjacent combinations, and the deterministic merge only
// needs each shard's locally-first failure to recover the globally smallest
// one.

#include <cstdint>
#include <vector>

namespace sani::sched {

/// A contiguous slice of the size-k combination space: lexicographic ranks
/// [begin, end) of the C(n, k) combinations.
struct Shard {
  int k = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end - begin; }
};

struct ShardPlanOptions {
  /// Target shards per worker per size class; >1 gives the work-stealing
  /// pool slack to rebalance uneven shard costs.
  int oversubscribe = 8;
  /// Never split below this many combinations (per-shard setup amortization).
  std::uint64_t min_size = 8;
  /// Never grow beyond this many combinations: bounds the cooperative
  /// cancellation latency, since tokens are polled per combination but
  /// shards are claimed whole.
  std::uint64_t max_size = 4096;
  /// Nonzero: exact shard size, overriding the auto sizing (tests/bench).
  std::uint64_t fixed_size = 0;
};

/// Partitions all combinations of sizes 1..d over n observables into
/// contiguous shards.  Shards are emitted in the search order's size order
/// (sizes ascending for depth-first search, descending for the paper's
/// largest-first strategy) with ranks ascending within a size; together the
/// ranges cover every combination exactly once.
std::vector<Shard> plan_shards(int n, int d, int workers, bool largest_first,
                               const ShardPlanOptions& options = {});

}  // namespace sani::sched
