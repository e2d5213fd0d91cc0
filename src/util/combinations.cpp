#include "util/combinations.h"

#include <limits>
#include <vector>

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

namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

// Pascal's triangle, saturating, for n < kPascalRows and k < kPascalCols
// (k folded to min(k, n - k)).  A folded k >= 34 implies n >= 68, where
// C(n, k) >= C(68, 34) > UINT64_MAX saturates anyway.
constexpr int kPascalRows = 1024;
constexpr int kPascalCols = 34;

const std::uint64_t* pascal() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(
        static_cast<std::size_t>(kPascalRows * kPascalCols), 0);
    auto at = [&t](int n, int k) -> std::uint64_t& {
      return t[static_cast<std::size_t>(n * kPascalCols + k)];
    };
    for (int n = 0; n < kPascalRows; ++n) {
      at(n, 0) = 1;
      for (int k = 1; k <= n && k < kPascalCols; ++k) {
        const std::uint64_t a = at(n - 1, k - 1), b = at(n - 1, k);
        at(n, k) = a > kMaxU64 - b ? kMaxU64 : a + b;
      }
    }
    return t;
  }();
  return table.data();
}

}  // namespace

std::uint64_t binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  if (n < kPascalRows)
    return k < kPascalCols ? pascal()[n * kPascalCols + k] : kMaxU64;
  // Rows past the table: C(n - k + i, i) stays exact in 128 bits.
  unsigned __int128 r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * static_cast<unsigned>(n - k + i) / static_cast<unsigned>(i);
    if (r > kMaxU64) return kMaxU64;
  }
  return static_cast<std::uint64_t>(r);
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
  std::uint64_t total = 0;
  for (int k = 1; k <= d && k <= n; ++k) {
    std::uint64_t c = binomial(n, k);
    if (total > kMaxU64 - c) return kMaxU64;
    total += c;
  }
  return total;
}

}  // namespace sani
