#pragma once
// Combination enumeration.
//
// The verifier explores all size-k subsets of the observable set (outputs +
// probes), for k = d down to 1 (Sec. III-C of the paper: starting from the
// maximum size makes vulnerabilities surface earlier in practice).  These
// helpers provide an allocation-free enumerator over index combinations and
// a count utility used for progress reporting.

#include <cstdint>
#include <vector>

namespace sani {

/// Enumerates all k-element subsets of {0, .., n-1} in lexicographic order.
///
/// Usage:
///   CombinationIter it(n, k);
///   do { use(it.indices()); } while (it.next());
///
/// For k == 0 the single empty combination is produced.
class CombinationIter {
 public:
  CombinationIter(int n, int k);

  /// Starts the enumeration at an arbitrary combination (ascending indices
  /// in [0, n)) instead of the first one — used by the sharded runtime to
  /// resume at a shard's begin rank.
  CombinationIter(int n, int k, const std::vector<int>& start);

  /// The current combination, ascending indices, size k.
  const std::vector<int>& indices() const { return idx_; }

  /// Advances to the next combination; false when exhausted.
  bool next();

  /// True if (n, k) admits at least one combination (k <= n).
  bool valid() const { return valid_; }

 private:
  int n_;
  int k_;
  bool valid_;
  std::vector<int> idx_;
};

/// In-place successor in lexicographic order; false when `combo` was the
/// last size-|combo| subset of {0..n-1}.
bool next_combination(std::vector<int>& combo, int n);

/// Binomial coefficient C(n, k) saturating at UINT64_MAX.
std::uint64_t binomial(int n, int k);

/// Number of subsets of {0..n-1} of size between 1 and d (saturating).
std::uint64_t count_combinations_up_to(int n, int d);

/// Lexicographic rank (combinatorial number system) of a size-k combination
/// among all size-k subsets of {0..n-1}.  Inverse of unrank_combination.
std::uint64_t combination_rank(int n, const std::vector<int>& combo);

/// Number of size-k subsets of {0..n-1} that precede `combo` (ascending
/// indices, any size) in lexicographic vector order, where a proper prefix
/// precedes its extensions.  For k == |combo| this is combination_rank; the
/// depth-first search order over sizes 1..d is exactly this vector order.
std::uint64_t count_lex_before(int n, int k, const std::vector<int>& combo);

/// The combination of lexicographic rank `rank` among size-k subsets of
/// {0..n-1}.  Precondition: rank < C(n, k) (and C(n, k) not saturated).
std::vector<int> unrank_combination(int n, int k, std::uint64_t rank);

}  // namespace sani
