#pragma once
// The row-check layer: per-combination security predicates, cached.
//
// A combination's check inputs depend only on its *signature* — the NI/SNI
// share threshold, the internal-probe count and the probed output indices
// (PINI) — not on which observables were combined.  RowCheck therefore
// builds the violation-region BDD (ADD engines) or the materialized
// ForbiddenRegion (scan engines) once per signature and serves every later
// combination with the same signature from a cache; hit/miss counts land in
// VerifyStats::region_cache.

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>

#include "circuit/unfold.h"
#include "util/mask.h"
#include "verify/backends/backend.h"
#include "verify/checker.h"
#include "verify/predicate.h"
#include "verify/types.h"

namespace sani::verify {

class RowCheck {
 public:
  /// `preds` is the predicate builder over the engine's manager for the ADD
  /// engines, null for the scan engines (which get ForbiddenRegions over
  /// `vars.share_vars | relevant_publics` instead).  `vars` must outlive
  /// the RowCheck (the driver passes the shared Basis' value copy).
  RowCheck(const circuit::VarMap& vars, Notion notion, bool joint_share_count,
           const Mask& relevant_publics, PredicateBuilder* preds,
           CacheStats* stats);

  const Checker& checker() const { return checker_; }

  /// The check inputs for a combination with composition `row`, cached by
  /// signature.  `coefficients` receives the region's lookup counts.
  RowCheckQuery query(const RowContext& row, std::uint64_t* coefficients);

 private:
  // (threshold, num_internal, output_mask) determines every notion's
  // region: NI/SNI read only the threshold, PINI only the probe/output
  // composition, probing none of them.
  using Key = std::tuple<int, int, std::uint64_t>;
  Key key_of(const RowContext& row) const;

  dd::Bdd build_predicate(const RowContext& row);

  const circuit::VarMap& vars_;
  Checker checker_;
  Mask relevant_publics_;
  PredicateBuilder* preds_;
  CacheStats* stats_;
  std::map<Key, dd::Bdd> predicates_;
  std::map<Key, std::unique_ptr<ForbiddenRegion>> regions_;
};

}  // namespace sani::verify
