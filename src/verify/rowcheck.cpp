#include "verify/rowcheck.h"

namespace sani::verify {

RowCheck::RowCheck(const circuit::VarMap& vars, Notion notion,
                   bool joint_share_count, const Mask& relevant_publics,
                   PredicateBuilder* preds, CacheStats* stats)
    : vars_(vars),
      checker_(vars, notion, joint_share_count),
      relevant_publics_(relevant_publics),
      preds_(preds),
      stats_(stats) {}

RowCheck::Key RowCheck::key_of(const RowContext& row) const {
  return {checker_.threshold(row), row.num_internal, row.output_mask};
}

dd::Bdd RowCheck::build_predicate(const RowContext& row) {
  switch (checker_.notion()) {
    case Notion::kNI:
    case Notion::kSNI:
      return preds_->ni_violation(checker_.threshold(row));
    case Notion::kProbing:
      return preds_->probing_violation();
    case Notion::kPINI:
      return preds_->pini_violation(row.output_mask, row.num_internal);
  }
  return preds_->probing_violation();
}

RowCheckQuery RowCheck::query(const RowContext& row,
                              std::uint64_t* coefficients) {
  RowCheckQuery q;
  q.coefficients = coefficients;
  const Key key = key_of(row);
  if (preds_) {
    auto it = predicates_.find(key);
    if (it == predicates_.end()) {
      if (stats_) ++stats_->misses;
      it = predicates_.emplace(key, build_predicate(row)).first;
    } else if (stats_) {
      ++stats_->hits;
    }
    q.violation_region = it->second;
  } else {
    auto it = regions_.find(key);
    if (it == regions_.end()) {
      if (stats_) ++stats_->misses;
      it = regions_
               .emplace(key, std::make_unique<ForbiddenRegion>(
                                 checker_, vars_, row, relevant_publics_))
               .first;
    } else if (stats_) {
      ++stats_->hits;
    }
    q.region = it->second.get();
  }
  return q;
}

}  // namespace sani::verify
