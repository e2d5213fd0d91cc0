#pragma once
// Spectral security conditions (per-coefficient and set-level).
//
// Shared by the DIRECT engine (which tests every random-free coefficient
// of a row with random_free_violates), the paper's scan engines (LIL/MAP
// enumerate a ForbiddenRegion) and the driver's set-level union pass.  The
// ADD engines express the same per-coefficient conditions as predicate BDDs
// (predicate.h); tests assert the formulations agree coefficient by
// coefficient.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "util/mask.h"
#include "verify/types.h"

namespace sani::verify {

/// The composition of the combination under check: a plain value, built
/// per combination without allocating.
struct RowContext {
  int num_observables = 0;  // |Q|
  int num_outputs = 0;      // output shares in Q
  int num_internal = 0;     // internal probes in Q
  /// Bit j: Q probes an output share with share index j (PINI).  Indices
  /// outside [0, 64) set no bit; the Checker rejects gadgets with more than
  /// 64 shares per secret, so no check reads such an index.
  std::uint64_t output_mask = 0;

  /// Counts one observable of Q into the row.
  void add(bool is_output, int output_share_index) {
    ++num_observables;
    if (!is_output) {
      ++num_internal;
      return;
    }
    ++num_outputs;
    if (output_share_index >= 0 && output_share_index < 64)
      output_mask |= std::uint64_t{1} << output_share_index;
  }
};

class Checker {
 public:
  /// `joint_share_count` switches NI/SNI from per-input share counting
  /// (standard) to total counting (the paper's Fig. 2 T-matrix).  Throws
  /// InputLimitError (verify/engine.h) above 64 shares per secret.
  Checker(const circuit::VarMap& vars, Notion notion,
          bool joint_share_count = false);

  Notion notion() const { return notion_; }
  bool joint_share_count() const { return joint_; }

  /// Share-count threshold of the per-row check: |Q| for NI, #internal for
  /// SNI.  (Probing and PINI use their own predicates.)
  int threshold(const RowContext& row) const;

  /// True if a nonzero coefficient at `alpha` violates the notion for a
  /// combination with composition `row`.  Coefficients with a random
  /// coordinate set never violate (they vanish in the averaged
  /// distribution).
  bool coefficient_violates(const Mask& alpha, const RowContext& row) const {
    return !alpha.intersects(vars_.random_vars) &&
           random_free_violates(alpha, row);
  }

  /// coefficient_violates for an `alpha` the caller knows has no random
  /// coordinate (DIRECT's one pass tests that itself).
  bool random_free_violates(const Mask& alpha, const RowContext& row) const;

  /// Set-level check on the accumulated dependency set V (union of the
  /// share supports over every sub-combination of Q).  The secrets' share
  /// groups are disjoint (Gadget::validate rejects a wire annotated twice),
  /// so V & secret_vars()[i] is exactly secret i's dependency set.  Fills
  /// `reason` on violation.  Probing security has no set-level component.
  bool union_violates(const Mask& V, const RowContext& row,
                      std::string* reason) const;

  const Mask& random_vars() const { return vars_.random_vars; }
  const std::vector<Mask>& secret_vars() const { return vars_.secret_vars; }

 private:
  /// Count of share indices touched by `bits` outside the `allowed` mask.
  int disallowed_indices(const Mask& bits, std::uint64_t allowed) const;

  const circuit::VarMap& vars_;
  Notion notion_;
  bool joint_;
  std::vector<Mask> index_vars_;  // I_j: share vars with index j, any secret
};

/// Explicit enumeration of the forbidden region — the nonzero support of
/// the relation matrix T(alpha, rho) of Sec. III-C.
///
/// The paper's scan engines (LIL, MAP) verify a combination by *multiplying
/// W with T*: every coordinate where T is 1 is looked up in the spectrum
/// container.  The region lives in the rho = 0 slice and spans the share
/// coordinates (plus any public coordinates the circuit actually uses), so
/// its size is ~2^#shares per combination — cheap for DOM-style gadgets
/// with few shares, and the exponential verification cost the paper observed
/// on Keccak (5 secrets).  The ADD engines (MAPI, FUJITA) replace this
/// enumeration with a symbolic product, which is the paper's speedup.
class ForbiddenRegion {
 public:
  /// Most coordinates the enumeration spans (2^40 cells).
  static constexpr std::size_t kMaxPositions = 40;

  /// `extra_vars`: public coordinates that can occur in spectra (publics in
  /// the support of some observable); share coordinates are always included.
  /// Throws InputLimitError (verify/engine.h) above kMaxPositions.
  ForbiddenRegion(const Checker& checker, const circuit::VarMap& vars,
                  const RowContext& row, const Mask& extra_vars);

  /// Number of cells of the enumeration space (2^bits).
  std::uint64_t space_size() const {
    return std::uint64_t{1} << positions_.size();
  }

  /// Visits every forbidden coordinate; `lookup(alpha)` returns true when
  /// the spectrum is nonzero there.  Returns true and fills `witness` on the
  /// first hit.  `visited` (optional) accumulates the number of lookups.
  template <typename Lookup>
  bool find_violation(Lookup&& lookup, Mask* witness,
                      std::uint64_t* visited = nullptr) const {
    const std::uint64_t cells = space_size();
    for (std::uint64_t idx = 0; idx < cells; ++idx) {
      if (!forbidden(idx)) continue;
      Mask alpha = expand(idx);
      if (visited) ++*visited;
      if (lookup(alpha)) {
        *witness = alpha;
        return true;
      }
    }
    return false;
  }

  /// True if the region is empty by construction (thresholds unreachable).
  bool empty() const;

 private:
  bool forbidden(std::uint64_t idx) const;
  Mask expand(std::uint64_t idx) const;

  RowContext row_;  // by value: cached regions outlive the caller's row
  std::vector<int> positions_;  // compact bit -> dd variable
  std::vector<std::uint64_t> group_compact_;  // per secret
  std::uint64_t shares_compact_ = 0;
  std::vector<std::uint64_t> index_compact_;  // per share index (PINI)
  Notion notion_;
  bool joint_;
  int threshold_ = 0;
};

}  // namespace sani::verify
