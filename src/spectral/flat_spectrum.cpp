#include "spectral/flat_spectrum.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "dd/walsh.h"
#include "util/assert.h"

namespace sani::spectral {

namespace {

// Chunk cap for the merge-based convolution: cross products are emitted at
// most this many terms at a time, so scratch memory stays bounded by the cap
// plus the (collapsed) result even when both rows are large.  Small rows —
// the overwhelmingly common case — take the single-chunk fast path.
constexpr std::size_t kChunkTerms = std::size_t{1} << 18;

// Fills the dense +/-1 encoding of a BDD over its support, walking the
// diagram once in level order.  Support position i (level order) is variable
// var[i] on truth-table bit bit[i]; below[i] holds the bits of positions
// i..k-1, the ones still free at depth i.  A terminal writes its value over
// every completion of the free bits, a variable the diagram skips is filled
// for one setting and its half duplicated to the other, and a node met again
// copies the sub-table of its first visit instead of walking it twice.  Each
// table entry is written exactly once.
struct DenseFill {
  static constexpr std::size_t kUnseen = ~std::size_t{0};

  const dd::Manager& m;
  std::array<int, kDenseSupportCutoff> var{};
  std::array<std::size_t, kDenseSupportCutoff> bit{};
  std::array<std::size_t, kDenseSupportCutoff + 1> below{};
  std::int64_t* table;
  // Open-addressed node -> base of its first visit (kNilNode = empty slot).
  std::vector<std::pair<dd::NodeId, std::size_t>> seen;

  DenseFill(const dd::Manager& manager, std::size_t nodes, std::int64_t* t)
      : m(manager), table(t) {
    std::size_t cap = 2;
    while (cap < 2 * nodes) cap <<= 1;
    seen.assign(cap, {dd::kNilNode, kUnseen});
  }

  std::size_t& first_base(dd::NodeId node) {
    const std::size_t mask = seen.size() - 1;
    std::size_t h = ((node * std::size_t{0x9E3779B97F4A7C15}) >> 32) & mask;
    while (seen[h].first != node && seen[h].first != dd::kNilNode)
      h = (h + 1) & mask;
    seen[h].first = node;
    return seen[h].second;
  }

  // Visits every subset of `bits` (ascending), including the empty one.
  template <typename Fn>
  static void for_each_subset(std::size_t bits, Fn&& fn) {
    for (std::size_t s = 0;; s = (s - bits) & bits) {
      fn(s);
      if (s == bits) return;
    }
  }

  void copy(std::size_t from, std::size_t to, std::size_t free) {
    for_each_subset(free,
                    [&](std::size_t s) { table[to | s] = table[from | s]; });
  }

  void run(dd::NodeId node, int i, std::size_t base) {
    if (m.is_terminal(node)) {
      const std::int64_t v = m.terminal_value(node) != 0 ? -1 : 1;
      for_each_subset(below[i], [&](std::size_t s) { table[base | s] = v; });
      return;
    }
    if (m.node_var(node) != var[i]) {
      run(node, i + 1, base);
      copy(base, base | bit[i], below[i + 1]);
      return;
    }
    std::size_t& first = first_base(node);
    if (first != kUnseen) {
      copy(first, base, below[i]);
      return;
    }
    first = base;
    run(m.node_lo(node), i + 1, base);
    run(m.node_hi(node), i + 1, base | bit[i]);
  }
};

std::int64_t scale_exact(__int128 v, int num_vars) {
  const __int128 scaled = v >> num_vars;
  if ((scaled << num_vars) != v)
    throw std::logic_error("FlatSpectrum: inexact 2^-n convolution scaling");
  return static_cast<std::int64_t>(scaled);
}

}  // namespace

FlatSpectrum FlatSpectrum::constant_zero(int num_vars) {
  FlatSpectrum s(num_vars);
  s.masks_.push_back(Mask{});
  s.coeffs_.push_back(std::int64_t{1} << num_vars);
  return s;
}

FlatSpectrum FlatSpectrum::from_spectrum(const Spectrum& s) {
  std::vector<std::pair<Mask, std::int64_t>> entries(s.coefficients().begin(),
                                                     s.coefficients().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  FlatSpectrum out(s.num_vars());
  out.masks_.reserve(entries.size());
  out.coeffs_.reserve(entries.size());
  for (const auto& [m, v] : entries) {
    out.masks_.push_back(m);
    out.coeffs_.push_back(v);
  }
  SANI_ASSERT(out.is_canonical());
  return out;
}

FlatSpectrum FlatSpectrum::from_sorted(int num_vars, std::vector<Mask> masks,
                                       std::vector<std::int64_t> coeffs) {
  FlatSpectrum out(num_vars);
  out.masks_ = std::move(masks);
  out.coeffs_ = std::move(coeffs);
  if (!out.is_canonical())
    throw std::invalid_argument(
        "FlatSpectrum::from_sorted: entries not sorted/unique/nonzero");
  return out;
}

FlatSpectrum FlatSpectrum::from_bdd(const dd::Bdd& f,
                                    std::vector<std::int64_t>* scratch) {
  const dd::Manager& m = *f.manager();
  const int n = m.num_vars();
  if (n > 62)
    throw std::invalid_argument(
        "FlatSpectrum::from_bdd: more than 62 variables would overflow int64 "
        "coefficients");
  Mask support;
  std::size_t nodes = 0;
  m.visit_postorder({f.node()}, [&](dd::NodeId node) {
    if (m.is_terminal(node)) return;
    support.set(m.node_var(node));
    ++nodes;
  });
  const int k = support.popcount();
  if (k > kDenseSupportCutoff)
    return from_add(dd::walsh_transform(f), n);

  // Truth-table bit j is the j-th support variable in ascending index order,
  // so ascending table index is ascending Mask order; `lo_masks`/`hi_masks`
  // map the low and high byte of an index back to its variables.
  std::array<int, kDenseSupportCutoff> vars{};
  int j = 0;
  for (Mask rest = support; rest.any(); rest.reset(rest.lowest_bit()))
    vars[j++] = rest.lowest_bit();
  const int lo_bits = std::min(k, 8);
  std::array<Mask, 256> lo_masks;
  std::array<Mask, 256> hi_masks;
  for (std::size_t x = 1; x < (std::size_t{1} << lo_bits); ++x)
    lo_masks[x] = lo_masks[x & (x - 1)] | Mask::bit(vars[__builtin_ctzll(x)]);
  for (std::size_t x = 1; x < (std::size_t{1} << (k - lo_bits)); ++x)
    hi_masks[x] =
        hi_masks[x & (x - 1)] | Mask::bit(vars[lo_bits + __builtin_ctzll(x)]);

  // The walk meets the support variables in level order.
  std::array<int, kDenseSupportCutoff> by_level{};
  for (int i = 0; i < k; ++i) by_level[i] = i;
  std::sort(by_level.begin(), by_level.begin() + k, [&](int a, int b) {
    return m.level_of(vars[a]) < m.level_of(vars[b]);
  });
  std::vector<std::int64_t> own;
  std::vector<std::int64_t>& table = scratch ? *scratch : own;
  table.resize(std::size_t{1} << k);
  DenseFill fill(m, nodes, table.data());
  for (int i = k - 1; i >= 0; --i) {
    fill.var[i] = vars[by_level[i]];
    fill.bit[i] = std::size_t{1} << by_level[i];
    fill.below[i] = fill.below[i + 1] | fill.bit[i];
  }
  fill.run(f.node(), 0, 0);
  fwht(table);

  std::size_t nonzero = 0;
  for (const std::int64_t v : table) nonzero += v != 0;
  FlatSpectrum out(n);
  out.masks_.reserve(nonzero);
  out.coeffs_.reserve(nonzero);
  const std::int64_t scale = std::int64_t{1} << (n - k);
  for (std::size_t a = 0; a < table.size(); ++a) {
    if (table[a] == 0) continue;
    out.masks_.push_back(lo_masks[a & 0xff] | hi_masks[a >> 8]);
    out.coeffs_.push_back(table[a] * scale);
  }
  SANI_ASSERT(out.is_canonical());
  return out;
}

FlatSpectrum FlatSpectrum::from_add(const dd::Add& spectrum, int num_vars) {
  std::vector<Mask> masks;
  std::vector<std::int64_t> coeffs;
  dd::enumerate_spectrum(spectrum, num_vars, &masks, &coeffs);
  // The level-order walk emits one entry per coordinate, but in diagram
  // order: only a descending variable order would make that coordinate-
  // sorted, so sort explicitly (index sort, then apply to both arrays).
  std::vector<std::uint32_t> perm(masks.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return masks[a] < masks[b];
  });
  FlatSpectrum out(num_vars);
  out.masks_.reserve(masks.size());
  out.coeffs_.reserve(masks.size());
  for (std::uint32_t i : perm) {
    out.masks_.push_back(masks[i]);
    out.coeffs_.push_back(coeffs[i]);
  }
  SANI_ASSERT(out.is_canonical());
  return out;
}

Spectrum FlatSpectrum::to_spectrum() const {
  Spectrum s(num_vars_);
  for (std::size_t i = 0; i < masks_.size(); ++i)
    s.set(masks_[i], coeffs_[i]);
  return s;
}

std::int64_t FlatSpectrum::at(const Mask& alpha) const {
  return flat_at(masks_.data(), coeffs_.data(), masks_.size(), alpha);
}

bool FlatSpectrum::is_canonical() const {
  if (masks_.size() != coeffs_.size()) return false;
  for (std::size_t i = 0; i < masks_.size(); ++i) {
    if (coeffs_[i] == 0) return false;
    if (i > 0 && !(masks_[i - 1] < masks_[i])) return false;
  }
  return true;
}

Mask FlatSpectrum::support_union(const Mask& forbidden) const {
  Mask u;
  for (const Mask& alpha : masks_)
    if (!alpha.intersects(forbidden)) u |= alpha;
  return u;
}

dd::Add FlatSpectrum::to_add(dd::Manager& manager) const {
  std::vector<std::pair<Mask, std::int64_t>> scratch;
  return flat_to_add(manager, num_vars_, masks_.data(), coeffs_.data(),
                     masks_.size(), &scratch);
}

FlatSpectrum FlatSpectrum::convolve(const FlatSpectrum& other) const {
  if (num_vars_ != other.num_vars_)
    throw std::invalid_argument(
        "FlatSpectrum::convolve: variable count mismatch");
  ConvolutionArena arena;
  return arena.convolve(*this, other);
}

std::int64_t flat_at(const Mask* masks, const std::int64_t* coeffs,
                     std::size_t n, const Mask& alpha) {
  const Mask* it = std::lower_bound(masks, masks + n, alpha);
  return (it != masks + n && *it == alpha) ? coeffs[it - masks] : 0;
}

dd::Add flat_to_add(dd::Manager& manager, int num_vars, const Mask* masks,
                    const std::int64_t* coeffs, std::size_t n,
                    std::vector<std::pair<Mask, std::int64_t>>* scratch,
                    ArenaStats* stats) {
  // Top-down recursive split on the variable order, as Spectrum::to_add:
  // make() alone never triggers garbage collection, so the bare NodeIds are
  // safe until the final handle wrap.  The entry buffer is caller-owned so
  // the MAPI scan loop reuses one allocation across all rows.
  if (scratch->capacity() < n && stats) ++stats->grows;
  scratch->clear();
  scratch->reserve(n);
  for (std::size_t i = 0; i < n; ++i) scratch->emplace_back(masks[i], coeffs[i]);
  struct Rec {
    dd::Manager& m;
    int num_vars;
    using It = std::vector<std::pair<Mask, std::int64_t>>::iterator;
    dd::NodeId run(It first, It last, int level) {
      if (first == last) return m.zero();
      if (level == num_vars) return m.terminal(first->second);
      const int var = m.var_at_level(level);
      It mid = std::partition(first, last,
                              [var](const std::pair<Mask, std::int64_t>& e) {
                                return !e.first.test(var);
                              });
      return m.make(var, run(first, mid, level + 1), run(mid, last, level + 1));
    }
  };
  dd::NodeId root =
      Rec{manager, num_vars}.run(scratch->begin(), scratch->end(), 0);
  return dd::Add(&manager, root);
}

void FlatRowSet::reset(int num_vars, ArenaStats* stats) {
  num_vars_ = num_vars;
  masks_.clear();
  coeffs_.clear();
  offsets_.clear();
  offsets_.push_back(0);
  (void)stats;
}

void FlatRowSet::reserve_more(std::size_t extra, ArenaStats* stats) {
  const std::size_t need = masks_.size() + extra;
  if (masks_.capacity() < need) {
    if (stats) ++stats->grows;
    const std::size_t cap = std::max(need, masks_.capacity() * 2);
    masks_.reserve(cap);
    coeffs_.reserve(cap);
  }
}

void FlatRowSet::append_row(const FlatSpectrum& s) {
  SANI_ASSERT(s.is_canonical());
  reserve_more(s.nonzero_count(), nullptr);
  masks_.insert(masks_.end(), s.masks().begin(), s.masks().end());
  coeffs_.insert(coeffs_.end(), s.coeffs().begin(), s.coeffs().end());
  offsets_.push_back(masks_.size());
}

void ConvolutionArena::ensure_terms(std::vector<Term>& buf, std::size_t n) {
  if (buf.capacity() < n) {
    ++stats_->grows;
    buf.reserve(std::max(n, buf.capacity() * 2));
  }
}

void ConvolutionArena::note_peak() {
  const std::uint64_t bytes =
      (terms_.capacity() + acc_.capacity() + merged_.capacity()) *
      sizeof(Term);
  if (bytes > stats_->peak_bytes) stats_->peak_bytes = bytes;
}

std::size_t ConvolutionArena::sort_and_collapse(std::size_t n) {
  std::sort(terms_.begin(), terms_.begin() + static_cast<std::ptrdiff_t>(n),
            [](const Term& a, const Term& b) { return a.m < b.m; });
  std::size_t w = 0;
  for (std::size_t r = 0; r < n;) {
    const Mask m = terms_[r].m;
    __int128 sum = terms_[r].v;
    for (++r; r < n && terms_[r].m == m; ++r) sum += terms_[r].v;
    // Coordinates cancelled by the accumulation are dropped immediately:
    // a zero contributes nothing to any later merge.
    if (sum != 0) terms_[w++] = Term{m, sum};
  }
  return w;
}

void ConvolutionArena::convolve_row(int num_vars, const Mask* a_masks,
                                    const std::int64_t* a_coeffs,
                                    std::size_t a_n, const Mask* b_masks,
                                    const std::int64_t* b_coeffs,
                                    std::size_t b_n, FlatRowSet& out) {
  ++stats_->convolutions;
  // Keep the inner loop over the longer operand: it runs contiguously over
  // that operand's SoA arrays, which is the autovectorizable pass.
  if (a_n < b_n) {
    std::swap(a_masks, b_masks);
    std::swap(a_coeffs, b_coeffs);
    std::swap(a_n, b_n);
  }
  const std::size_t total = a_n * b_n;  // b_n <= a_n, so outer = b

  // Fast path: all cross products fit one chunk — emit, sort, collapse,
  // scale straight into the output row.
  if (total <= kChunkTerms) {
    ensure_terms(terms_, total);
    terms_.clear();
    for (std::size_t i = 0; i < b_n; ++i) {
      const Mask bm = b_masks[i];
      const std::int64_t bv = b_coeffs[i];
      for (std::size_t j = 0; j < a_n; ++j)
        terms_.push_back(
            Term{bm ^ a_masks[j], static_cast<__int128>(bv) * a_coeffs[j]});
    }
    const std::size_t n = sort_and_collapse(total);
    out.reserve_more(n, stats_);
    for (std::size_t i = 0; i < n; ++i) {
      out.masks_.push_back(terms_[i].m);
      out.coeffs_.push_back(scale_exact(terms_[i].v, num_vars));
    }
    out.offsets_.push_back(out.masks_.size());
    note_peak();
    return;
  }

  // Large rows: emit the cross products in bounded chunks of outer entries,
  // collapse each chunk, and merge it into the sorted accumulator — memory
  // stays O(chunk + result) instead of O(|a|*|b|).
  const std::size_t outer_per_chunk = std::max<std::size_t>(
      1, kChunkTerms / a_n);
  acc_.clear();
  for (std::size_t i0 = 0; i0 < b_n; i0 += outer_per_chunk) {
    const std::size_t i1 = std::min(b_n, i0 + outer_per_chunk);
    ensure_terms(terms_, (i1 - i0) * a_n);
    terms_.clear();
    for (std::size_t i = i0; i < i1; ++i) {
      const Mask bm = b_masks[i];
      const std::int64_t bv = b_coeffs[i];
      for (std::size_t j = 0; j < a_n; ++j)
        terms_.push_back(
            Term{bm ^ a_masks[j], static_cast<__int128>(bv) * a_coeffs[j]});
    }
    const std::size_t n = sort_and_collapse((i1 - i0) * a_n);
    // Merge the collapsed chunk with the accumulator (both sorted, both
    // duplicate-free): classic two-pointer merge with on-equal addition.
    ensure_terms(merged_, acc_.size() + n);
    merged_.clear();
    std::size_t p = 0, q = 0;
    while (p < acc_.size() && q < n) {
      if (acc_[p].m < terms_[q].m) {
        merged_.push_back(acc_[p++]);
      } else if (terms_[q].m < acc_[p].m) {
        merged_.push_back(terms_[q++]);
      } else {
        const __int128 sum = acc_[p].v + terms_[q].v;
        if (sum != 0) merged_.push_back(Term{acc_[p].m, sum});
        ++p;
        ++q;
      }
    }
    for (; p < acc_.size(); ++p) merged_.push_back(acc_[p]);
    for (; q < n; ++q) merged_.push_back(terms_[q]);
    std::swap(acc_, merged_);
  }
  out.reserve_more(acc_.size(), stats_);
  for (const Term& t : acc_) {
    out.masks_.push_back(t.m);
    out.coeffs_.push_back(scale_exact(t.v, num_vars));
  }
  out.offsets_.push_back(out.masks_.size());
  note_peak();
}

FlatSpectrum ConvolutionArena::convolve(const FlatSpectrum& a,
                                        const FlatSpectrum& b) {
  if (a.num_vars() != b.num_vars())
    throw std::invalid_argument(
        "ConvolutionArena::convolve: variable count mismatch");
  FlatRowSet tmp(a.num_vars());
  convolve_row(a.num_vars(), a.masks().data(), a.coeffs().data(),
               a.nonzero_count(), b.masks().data(), b.coeffs().data(),
               b.nonzero_count(), tmp);
  FlatSpectrum out(a.num_vars());
  out.masks_.assign(tmp.row_masks(0), tmp.row_masks(0) + tmp.row_size(0));
  out.coeffs_.assign(tmp.row_coeffs(0), tmp.row_coeffs(0) + tmp.row_size(0));
  SANI_ASSERT(out.is_canonical());
  return out;
}

}  // namespace sani::spectral
