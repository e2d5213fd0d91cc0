#pragma once
// Flat sorted Walsh spectra — the contiguous hot-loop container.
//
// A FlatSpectrum stores the nonzero Walsh coefficients of a Boolean
// function as two parallel arrays sorted by spectral coordinate (SoA:
// masks[] / coeffs[]).  Compared to the hash-map Spectrum it removes the
// per-coefficient node allocations, hashing, and rehash churn that dominate
// sub-millisecond gadgets, and its contiguous layout lets the convolution
// inner loop run as a straight-line pass the compiler can autovectorize
// (no intrinsics).
//
// Canonical form (checked by SANI_ASSERT on every construction, and always
// queryable via is_canonical()):
//   * masks_ strictly ascending in Mask's (hi, lo) lexicographic order,
//   * coeffs_.size() == masks_.size(),
//   * no zero coefficient.
//
// Convolution (the XOR-convolution theorem s_{f^g} = 2^-n s_f (*) s_g) is
// merge-based: all |a|*|b| cross products are emitted into arena scratch,
// sorted by coordinate, and collapsed in one accumulation pass with exact
// __int128 arithmetic and a checked 2^-n scaling.  The scratch lives in a
// ConvolutionArena that is reused across the whole combination scan, so a
// warmed-up scan performs zero per-combination heap allocations — the
// ArenaStats counters make that claim testable.
//
// The hash-map Spectrum stays as the ground-truth container for tests; the
// two convert losslessly in both directions.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dd/add.h"
#include "dd/bdd.h"
#include "spectral/spectrum.h"
#include "util/mask.h"

namespace sani::spectral {

/// Allocation/reuse counters of the flat convolution path.  `grows` counts
/// heap growth events across every arena-managed buffer (scratch terms, row
/// storage, ADD-rebuild scratch): on a warmed-up scan it plateaus while
/// `convolutions` keeps climbing, which is exactly the zero-per-combination-
/// allocation property the tests assert.
struct ArenaStats {
  std::uint64_t convolutions = 0;  // merge-kernel invocations
  std::uint64_t grows = 0;         // buffer capacity growth events
  std::uint64_t peak_bytes = 0;    // high-water scratch + row footprint
};

class FlatRowSet;

/// Widest support from_bdd transforms densely: a 2^16-entry int64 table
/// (512 KB).  The registry's cones span 3-13 variables.
inline constexpr int kDenseSupportCutoff = 16;

class FlatSpectrum {
 public:
  explicit FlatSpectrum(int num_vars = 0) : num_vars_(num_vars) {}

  /// The spectrum of the constant-0 function: single coefficient 2^n at 0.
  static FlatSpectrum constant_zero(int num_vars);

  /// Sorted import from the hash-map container (sorts once).
  static FlatSpectrum from_spectrum(const Spectrum& s);

  /// Adopts already-canonical arrays (deserialization); throws
  /// std::invalid_argument if they are not sorted/unique/nonzero.
  static FlatSpectrum from_sorted(int num_vars, std::vector<Mask> masks,
                                  std::vector<std::int64_t> coeffs);

  /// Walsh spectrum of f.  For a support of at most kDenseSupportCutoff
  /// variables: a dense +/-1 truth table over the support (one walk of the
  /// diagram), an in-place fwht, and every nonzero scaled by 2^(n-k) — no
  /// ADD, no computed-table traffic, no sort.  Wider supports take the
  /// Fujita transform and from_add.  `scratch`, when given, holds the table
  /// and is reused across calls.  Throws std::invalid_argument above 62
  /// manager variables.
  static FlatSpectrum from_bdd(const dd::Bdd& f,
                               std::vector<std::int64_t>* scratch = nullptr);

  /// Converts a spectrum ADD (over spectral variables) into flat form.  The
  /// level-order diagram walk emits coordinates in an order that depends on
  /// the manager's variable order, so the entries are sorted here.
  static FlatSpectrum from_add(const dd::Add& spectrum, int num_vars);

  /// Lossless conversion to the ground-truth hash-map container.
  Spectrum to_spectrum() const;

  int num_vars() const { return num_vars_; }
  std::size_t nonzero_count() const { return masks_.size(); }
  bool empty() const { return masks_.empty(); }
  const std::vector<Mask>& masks() const { return masks_; }
  const std::vector<std::int64_t>& coeffs() const { return coeffs_; }

  /// Coefficient at alpha (binary search; 0 if absent).
  std::int64_t at(const Mask& alpha) const;

  /// True iff the representation is in canonical form (sorted, unique, no
  /// zero coefficients).  Always available — tests use it directly; hot
  /// paths guard it behind SANI_ASSERT.
  bool is_canonical() const;

  /// Union of supp(alpha) over all coefficients whose alpha does not
  /// intersect `forbidden`.
  Mask support_union(const Mask& forbidden) const;

  /// Rebuilds the ADD representation (MAPI verification).
  dd::Add to_add(dd::Manager& manager) const;

  /// Spectrum of (f XOR g) via a one-shot arena (tests/serial call sites;
  /// the scan loop uses ConvolutionArena directly to reuse scratch).
  FlatSpectrum convolve(const FlatSpectrum& other) const;

  friend bool operator==(const FlatSpectrum& a, const FlatSpectrum& b) {
    return a.num_vars_ == b.num_vars_ && a.masks_ == b.masks_ &&
           a.coeffs_ == b.coeffs_;
  }

 private:
  friend class ConvolutionArena;

  int num_vars_;
  std::vector<Mask> masks_;           // strictly ascending (hi, lo) order
  std::vector<std::int64_t> coeffs_;  // parallel to masks_, all nonzero
};

/// Coefficient at alpha in a raw sorted row (binary search; 0 if absent).
std::int64_t flat_at(const Mask* masks, const std::int64_t* coeffs,
                     std::size_t n, const Mask& alpha);

/// Rebuilds the ADD of a raw sorted row (MAPI verification step).  `scratch`
/// is caller-owned reusable pair storage; growth events are credited to
/// `stats` when given.
dd::Add flat_to_add(dd::Manager& manager, int num_vars, const Mask* masks,
                    const std::int64_t* coeffs, std::size_t n,
                    std::vector<std::pair<Mask, std::int64_t>>* scratch,
                    ArenaStats* stats = nullptr);

/// A set of flat spectra sharing contiguous storage — the per-level row
/// container of the combination scan.  Rows are appended in order; offsets_
/// marks row boundaries (offsets_[i]..offsets_[i+1]).  reset() keeps the
/// capacity, so per-depth slots reused across the scan stop allocating once
/// the high-water row set has been seen.
class FlatRowSet {
 public:
  explicit FlatRowSet(int num_vars = 0) : num_vars_(num_vars) {
    offsets_.push_back(0);
  }

  /// Drops all rows, keeps capacity; growth events keep crediting `stats`.
  void reset(int num_vars, ArenaStats* stats);

  int num_vars() const { return num_vars_; }
  std::size_t row_count() const { return offsets_.size() - 1; }
  std::size_t row_size(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  const Mask* row_masks(std::size_t i) const {
    return masks_.data() + offsets_[i];
  }
  const std::int64_t* row_coeffs(std::size_t i) const {
    return coeffs_.data() + offsets_[i];
  }
  /// Total coefficients across all rows.
  std::uint64_t coefficients() const { return masks_.size(); }
  std::uint64_t bytes() const {
    return masks_.capacity() * sizeof(Mask) +
           coeffs_.capacity() * sizeof(std::int64_t) +
           offsets_.capacity() * sizeof(std::size_t);
  }

  /// Appends a whole spectrum as one row.
  void append_row(const FlatSpectrum& s);

 private:
  friend class ConvolutionArena;

  void reserve_more(std::size_t extra, ArenaStats* stats);

  int num_vars_;
  std::vector<Mask> masks_;
  std::vector<std::int64_t> coeffs_;
  std::vector<std::size_t> offsets_;  // row i = [offsets_[i], offsets_[i+1])
};

/// Reusable scratch for the merge-based XOR-convolution.  One arena serves a
/// whole Driver/backend: buffers only ever grow (tracked in ArenaStats), so
/// the steady-state combination scan allocates nothing.
class ConvolutionArena {
 public:
  explicit ConvolutionArena(ArenaStats* stats = nullptr)
      : stats_(stats ? stats : &own_stats_) {}

  const ArenaStats& stats() const { return *stats_; }
  ArenaStats* stats_ptr() { return stats_; }

  /// XOR-convolves row a with row b (both canonical-sorted), scales by 2^-n
  /// (exact, checked), and appends the canonical result as a new row of
  /// `out`.  Throws std::logic_error on an inexact scaling (inputs were not
  /// genuine Boolean spectra).
  void convolve_row(int num_vars, const Mask* a_masks,
                    const std::int64_t* a_coeffs, std::size_t a_n,
                    const Mask* b_masks, const std::int64_t* b_coeffs,
                    std::size_t b_n, FlatRowSet& out);

  /// Whole-spectrum convenience wrapper.
  FlatSpectrum convolve(const FlatSpectrum& a, const FlatSpectrum& b);

 private:
  struct Term {
    Mask m;
    __int128 v;
  };

  void ensure_terms(std::vector<Term>& buf, std::size_t n);
  void note_peak();
  /// Sorts terms_[0..n) by mask and collapses equal coordinates in place,
  /// dropping zero sums; returns the collapsed count.
  std::size_t sort_and_collapse(std::size_t n);

  ArenaStats own_stats_;  // used when no external stats sink is wired up
  ArenaStats* stats_;
  std::vector<Term> terms_;   // cross-product emission + in-place collapse
  std::vector<Term> acc_;     // chunked accumulation (large rows)
  std::vector<Term> merged_;  // merge output, swapped with acc_
};

}  // namespace sani::spectral
