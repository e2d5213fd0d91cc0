#include "verify/backends/map_backend.h"

#include "dd/add.h"

namespace sani::verify {

using spectral::FlatRowSet;
using spectral::FlatSpectrum;

MapBackend::MapBackend(const BackendContext& ctx, Check check)
    : basis_(ctx.basis),
      manager_(ctx.manager),
      check_(check),
      coefficients_(*ctx.coefficients),
      order_(ctx.order),
      arena_(ctx.arena_stats),
      root_(basis_->vars.num_vars) {}

void MapBackend::prepare() {
  root_.append_row(FlatSpectrum::constant_zero(basis_->vars.num_vars));
  // One reusable slot per stack depth: a push at depth d only ever runs
  // after the previous depth-d level popped, so slot d can be overwritten
  // in place — its capacity survives, which is what makes the steady-state
  // scan allocation-free.
  slots_.reserve(static_cast<std::size_t>(order_) + 1);
  for (int d = 0; d <= order_; ++d) slots_.emplace_back(basis_->vars.num_vars);
  stack_.reserve(static_cast<std::size_t>(order_) + 1);
  stack_.push_back(&root_);
}

std::uint64_t MapBackend::build_level(const RowSet& cur,
                                      const std::vector<FlatSpectrum>& base,
                                      RowSet& out) {
  const int num_vars = basis_->vars.num_vars;
  out.reset(num_vars, arena_.stats_ptr());
  for (std::size_t r = 0; r < cur.row_count(); ++r)
    for (const FlatSpectrum& s : base)
      arena_.convolve_row(num_vars, cur.row_masks(r), cur.row_coeffs(r),
                          cur.row_size(r), s.masks().data(), s.coeffs().data(),
                          s.nonzero_count(), out);
  return out.coefficients();
}

void MapBackend::push(const std::vector<int>& path) {
  RowSet& slot = slots_[path.size()];
  coefficients_ +=
      build_level(*stack_.back(), basis_->flat[path.back()], slot);
  stack_.push_back(&slot);
}

void MapBackend::pop() { stack_.pop_back(); }

std::optional<Mask> MapBackend::check_rows(const RowCheckQuery& q) {
  const RowSet& top = *stack_.back();
  if (check_ == Check::kDirect) {
    // Every stored coefficient is nonzero, so W.T is nonzero iff one of
    // them lies in the forbidden region; the sorted order makes the first
    // hit the canonical witness.  Only random-free coefficients can violate,
    // and exactly those make up V.
    const Mask& random = basis_->vars.random_vars;
    const Mask& shares = basis_->vars.share_vars;
    Mask V;
    for (std::size_t r = 0; r < top.row_count(); ++r) {
      const Mask* masks = top.row_masks(r);
      const std::size_t n = top.row_size(r);
      for (std::size_t i = 0; i < n; ++i) {
        if (masks[i].intersects(random)) continue;
        if (q.checker->random_free_violates(masks[i], *q.row)) return masks[i];
        V |= masks[i] & shares;
      }
    }
    if (q.deps) *q.deps |= V;
    return std::nullopt;
  }
  for (std::size_t r = 0; r < top.row_count(); ++r) {
    const Mask* masks = top.row_masks(r);
    const std::int64_t* coeffs = top.row_coeffs(r);
    const std::size_t n = top.row_size(r);
    switch (check_) {
      case Check::kDirect:
        break;  // one pass, above
      case Check::kAdd: {
        // The paper's MAPI step: W as an ADD, multiplied against the
        // violation region T; a nonzero product is a witness.
        dd::Add w = spectral::flat_to_add(*manager_, basis_->vars.num_vars,
                                          masks, coeffs, n, &add_scratch_,
                                          arena_.stats_ptr());
        dd::Bdd hit = w.nonzero() & q.violation_region;
        Mask alpha;
        if (hit.any_sat(&alpha)) return alpha;
        break;
      }
      case Check::kRegion: {
        // MAP verification = product of W with the materialized relation
        // vector T: every forbidden coordinate is a binary search in the
        // sorted row.
        if (q.region->empty()) break;
        Mask witness;
        if (q.region->find_violation(
                [&](const Mask& a) {
                  return spectral::flat_at(masks, coeffs, n, a) != 0;
                },
                &witness, q.coefficients))
          return witness;
        break;
      }
    }
  }
  if (q.deps) accumulate_deps(*q.deps);
  return std::nullopt;
}

void MapBackend::accumulate_deps(Mask& V) const {
  const RowSet& top = *stack_.back();
  for (std::size_t r = 0; r < top.row_count(); ++r) {
    const Mask* masks = top.row_masks(r);
    const std::size_t n = top.row_size(r);
    for (std::size_t i = 0; i < n; ++i) {
      const Mask& alpha = masks[i];
      if (!alpha.intersects(basis_->vars.random_vars))
        V |= alpha & basis_->vars.share_vars;
    }
  }
}

}  // namespace sani::verify
