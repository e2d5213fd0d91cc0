#include "verify/backends/lil_backend.h"

#include "obs/trace.h"

namespace sani::verify {

using spectral::LilSpectrum;
using spectral::Spectrum;

LilBackend::LilBackend(const BackendContext& ctx)
    : basis_(ctx.basis),
      timers_(*ctx.timers),
      coefficients_(*ctx.coefficients) {}

void LilBackend::prepare() {
  rows_.push_back(RowSet{LilSpectrum::from_spectrum(
      Spectrum::constant_zero(basis_->vars.num_vars))});
}

void LilBackend::push(const std::vector<int>& path) {
  ScopedPhase phase(timers_, "convolution");
  obs::Span span("convolution");
  const RowSet& cur = rows_.back();
  const std::vector<LilSpectrum>& base = basis_->lil[path.back()];
  RowSet next;
  next.reserve(cur.size() * base.size());
  for (const LilSpectrum& r : cur)
    for (const LilSpectrum& s : base) {
      next.push_back(r.convolve(s));
      coefficients_ += next.back().nonzero_count();
    }
  rows_.push_back(std::move(next));
}

void LilBackend::pop() { rows_.pop_back(); }

std::optional<Mask> LilBackend::check_rows(const RowCheckQuery& q) {
  ScopedPhase phase(timers_, "verification");
  obs::Span span("add_check");
  // LIL verification = product with the materialized relation vector,
  // each forbidden coordinate resolved by binary search in the sorted
  // list (the TCHES'20 baseline's cost model).
  if (q.region->empty()) return std::nullopt;
  for (const LilSpectrum& r : rows_.back()) {
    Mask witness;
    if (q.region->find_violation(
            [&](const Mask& a) { return r.at(a) != 0; }, &witness,
            q.coefficients))
      return witness;
  }
  return std::nullopt;
}

void LilBackend::accumulate_deps(std::vector<Mask>& V) {
  for (const LilSpectrum& r : rows_.back())
    for (const auto& [alpha, v] : r.entries()) {
      if (alpha.intersects(basis_->vars.random_vars)) continue;
      for (std::size_t i = 0; i < V.size(); ++i)
        V[i] |= alpha & basis_->vars.secret_vars[i];
    }
}

}  // namespace sani::verify
