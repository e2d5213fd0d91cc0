#include "util/combinations.h"

#include <limits>

namespace sani {

CombinationIter::CombinationIter(int n, int k)
    : n_(n), k_(k), valid_(k >= 0 && k <= n) {
  idx_.reserve(static_cast<std::size_t>(k > 0 ? k : 0));
  for (int i = 0; i < k; ++i) idx_.push_back(i);
}

CombinationIter::CombinationIter(int n, int k, const std::vector<int>& start)
    : n_(n), k_(k),
      valid_(k >= 0 && k <= n && static_cast<int>(start.size()) == k),
      idx_(start) {}

bool CombinationIter::next() {
  if (!valid_ || k_ == 0) return false;
  return next_combination(idx_, n_);
}

bool next_combination(std::vector<int>& combo, int n) {
  const int k = static_cast<int>(combo.size());
  // Find the rightmost index that can still move right.
  int i = k - 1;
  while (i >= 0 && combo[static_cast<std::size_t>(i)] == n - k + i) --i;
  if (i < 0) return false;
  ++combo[static_cast<std::size_t>(i)];
  for (int j = i + 1; j < k; ++j)
    combo[static_cast<std::size_t>(j)] =
        combo[static_cast<std::size_t>(j - 1)] + 1;
  return true;
}

std::uint64_t binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t r = 1;
  for (int i = 1; i <= k; ++i) {
    std::uint64_t num = static_cast<std::uint64_t>(n - k + i);
    if (r > kMax / num) return kMax;  // saturate
    r = r * num / static_cast<std::uint64_t>(i);
  }
  return r;
}

std::uint64_t count_lex_before(int n, int k, const std::vector<int>& combo) {
  const int m = static_cast<int>(combo.size());
  std::uint64_t rank = 0;
  int prev = -1;
  for (int i = 0; i < k && i < m; ++i) {
    // Combinations sharing combo's first i values and taking a smaller one
    // at position i (with any admissible tail) all precede it: the sum over
    // prev < v < c of C(n-1-v, k-1-i), which telescopes (hockey stick) to
    // two binomials.
    const int c = combo[static_cast<std::size_t>(i)];
    rank += binomial(n - 1 - prev, k - i) - binomial(n - c, k - i);
    prev = c;
  }
  // The size-k prefix of a longer combo precedes it too.
  if (k < m) ++rank;
  return rank;
}

std::uint64_t combination_rank(int n, const std::vector<int>& combo) {
  return count_lex_before(n, static_cast<int>(combo.size()), combo);
}

std::vector<int> unrank_combination(int n, int k, std::uint64_t rank) {
  std::vector<int> combo;
  combo.reserve(static_cast<std::size_t>(k));
  int v = 0;
  for (int i = 0; i < k; ++i) {
    for (;; ++v) {
      const std::uint64_t below = binomial(n - 1 - v, k - 1 - i);
      if (rank < below) break;
      rank -= below;
    }
    combo.push_back(v);
    ++v;
  }
  return combo;
}

std::uint64_t count_combinations_up_to(int n, int d) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (int k = 1; k <= d && k <= n; ++k) {
    std::uint64_t c = binomial(n, k);
    if (total > kMax - c) return kMax;
    total += c;
  }
  return total;
}

}  // namespace sani
