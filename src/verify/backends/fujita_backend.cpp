#include "verify/backends/fujita_backend.h"

#include "obs/trace.h"

#include <stdexcept>

#include "dd/walsh.h"

namespace sani::verify {

FujitaBackend::FujitaBackend(const BackendContext& ctx)
    : basis_(ctx.basis),
      manager_(ctx.manager),
      thawed_(ctx.thawed),
      rho0_(ctx.rho_zero),
      timers_(*ctx.timers),
      coefficients_(*ctx.coefficients) {}

void FujitaBackend::prepare() {
  // The XOR-subset BDDs were frozen at build_basis() time and thawed into
  // this worker's manager by the Driver; indexing the handles is all that
  // is left — no per-worker rebuild.
  if (!thawed_ || basis_->frozen_fn_roots.size() != basis_->size())
    throw std::logic_error(
        "fujita backend: basis has no frozen XOR-subset functions "
        "(rebuild the basis for this engine)");
  base_.reserve(basis_->size());
  for (const std::vector<std::size_t>& roots : basis_->frozen_fn_roots) {
    std::vector<dd::Bdd> subsets;
    subsets.reserve(roots.size());
    for (std::size_t r : roots)
      subsets.emplace_back(manager_, (*thawed_)[r].node());
    base_.push_back(std::move(subsets));
  }
  rows_.push_back(RowSet{Row{dd::Bdd::zero(*manager_), dd::Add()}});
}

void FujitaBackend::push(const std::vector<int>& path) {
  ScopedPhase phase(timers_, "convolution");
  obs::Span span("convolution");
  const RowSet& cur = rows_.back();
  const std::vector<dd::Bdd>& base = base_[path.back()];
  RowSet next;
  next.reserve(cur.size() * base.size());
  for (const Row& r : cur)
    for (const dd::Bdd& s : base) {
      Row row;
      row.fn = r.fn ^ s;
      // The spectral transform replaces the convolution step entirely.
      row.spectrum = dd::walsh_transform(row.fn);
      coefficients_ +=
          static_cast<std::uint64_t>(row.spectrum.nonzero_count());
      next.push_back(std::move(row));
    }
  rows_.push_back(std::move(next));
}

void FujitaBackend::pop() { rows_.pop_back(); }

std::optional<Mask> FujitaBackend::check_rows(const RowCheckQuery& q) {
  ScopedPhase phase(timers_, "verification");
  obs::Span span("add_check");
  for (const Row& r : rows_.back()) {
    dd::Bdd hit = r.spectrum.nonzero() & q.violation_region;
    Mask alpha;
    if (hit.any_sat(&alpha)) return alpha;
  }
  return std::nullopt;
}

void FujitaBackend::accumulate_deps(std::vector<Mask>& V) {
  const circuit::VarMap& vars = basis_->vars;
  for (const Row& r : rows_.back()) {
    dd::Bdd nz = r.spectrum.nonzero() & rho0_;
    vars.share_vars.for_each_bit([&](int v) {
      if (!dd::Bdd(manager_, manager_->cofactor(nz.node(), v, true))
               .is_zero()) {
        for (std::size_t i = 0; i < V.size(); ++i)
          if (vars.secret_vars[i].test(v)) V[i].set(v);
      }
    });
  }
}

}  // namespace sani::verify
