#pragma once
// List-of-lists backend (LIL engine — the TCHES'20 exact baseline).
//
// Convolution and verification run on the shared Basis' sorted-list
// spectra; no dd::Manager is needed anywhere, so parallel LIL workers share
// one Basis without replaying the unfolding.

#include "verify/backends/backend.h"

namespace sani::verify {

class LilBackend : public Backend {
 public:
  explicit LilBackend(const BackendContext& ctx);

  void prepare() override;
  void push(const std::vector<int>& path) override;
  void pop() override;
  std::optional<Mask> check_rows(const RowCheckQuery& q) override;
 private:
  /// Unions the rho = 0 share supports of the current rows into V (the
  /// set-level check's second pass after a passing check_rows).
  void accumulate_deps(Mask& V) const;

  using RowSet = std::vector<spectral::LilSpectrum>;

  std::shared_ptr<const Basis> basis_;
  std::uint64_t& coefficients_;
  std::vector<RowSet> rows_;  // one row set per stack depth
};

}  // namespace sani::verify
