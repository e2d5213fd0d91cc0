#pragma once
// The relation/predicate matrix T(alpha, rho) of Sec. III-C.
//
// T is a 0/1 function over the spectral coordinates that is 1 exactly where
// the Walsh spectrum W of a combination *must* vanish for the security
// notion to hold (the white areas of Fig. 2).  The interference check is
// then the existential predicate
//
//     exists alpha . T(alpha, rho) AND W(alpha, rho) AND (rho = 0)
//
// which the ADD engines evaluate as `nonzero(W) AND T != false` (the rho = 0
// constraint is folded into T).  Predicates are cached per threshold since
// the same T is reused across every combination with equal counts.

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/unfold.h"
#include "dd/bdd.h"

namespace sani::verify {

class PredicateBuilder {
 public:
  /// `joint_share_count` switches the NI/SNI region to total share counting
  /// (see VerifyOptions::joint_share_count).
  PredicateBuilder(dd::Manager& manager, const circuit::VarMap& vars,
                   bool joint_share_count = false);

  /// BDD of "every random spectral coordinate is 0".
  const dd::Bdd& rho_zero() const { return rho_zero_; }

  /// NI/SNI violation region: rho = 0 and some secret has more than
  /// `threshold` of its share coordinates selected.
  dd::Bdd ni_violation(int threshold);

  /// Probing-security violation region: rho = 0, every secret's share
  /// coordinates are selected fully or not at all, and at least one secret
  /// is fully selected.  (Partially selected groups average to zero over a
  /// uniform sharing and cannot leak the secret.)
  dd::Bdd probing_violation();

  /// PINI violation region: rho = 0 and the number of *share indices*
  /// touched outside `allowed` (bit j: index j is allowed) exceeds
  /// `threshold`.
  dd::Bdd pini_violation(std::uint64_t allowed, int threshold);

  /// Symmetric helper: "at least k of `vars` are 1".
  dd::Bdd count_ge(const std::vector<int>& vars, int k);

 private:
  dd::Manager& m_;
  const circuit::VarMap& vars_;
  bool joint_;
  dd::Bdd rho_zero_;
  std::map<int, dd::Bdd> ni_cache_;
  dd::Bdd probing_cache_;
  std::map<std::pair<std::uint64_t, int>, dd::Bdd> pini_cache_;
};

}  // namespace sani::verify
