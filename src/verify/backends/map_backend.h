#pragma once
// Flat-spectrum backend (MAP, MAPI and DIRECT engines).
//
// Convolution runs on the shared Basis' flat sorted spectra through a
// ConvolutionArena: cross products are emitted into reusable scratch,
// sorted, and collapsed into per-depth row-set slots, so the steady-state
// combination scan performs zero heap allocations (ArenaStats makes the
// claim testable).  The three engines differ only in the verification step:
//
//  * DIRECT — one pass over each row's nonzero coefficients: each
//    random-free one is tested with Checker::random_free_violates and, for
//    the set-level check, ORed into V in the same pass.  The witness is the
//    first violating mask of the first violating row (the smallest in
//    FlatSpectrum order).  No region, no manager, no cap on the number of
//    share coordinates.
//  * MAP — the scan product with the materialized ForbiddenRegion, each
//    coordinate resolved by binary search over the sorted row.
//  * MAPI — the paper's symbolic ADD product (needs the manager).  The
//    Driver has already thawed the Basis' frozen base-spectrum ADDs into
//    the manager, so the per-row ADD rebuilds hit a warm unique table.

#include "spectral/flat_spectrum.h"
#include "verify/backends/backend.h"

namespace sani::verify {

class MapBackend : public Backend {
 public:
  enum class Check : std::uint8_t { kDirect, kRegion, kAdd };

  MapBackend(const BackendContext& ctx, Check check);

  void prepare() override;
  void push(const std::vector<int>& path) override;
  void pop() override;
  std::optional<Mask> check_rows(const RowCheckQuery& q) override;

  /// Unions the rho = 0 share supports of the current rows into V: the
  /// second pass MAP and MAPI make after a passing check (DIRECT folds it
  /// into check_rows).
  void accumulate_deps(Mask& V) const;

 private:
  using RowSet = spectral::FlatRowSet;

  /// Convolves every (current row x base subset) pair into `out`.
  std::uint64_t build_level(const RowSet& cur,
                            const std::vector<spectral::FlatSpectrum>& base,
                            RowSet& out);

  std::shared_ptr<const Basis> basis_;
  dd::Manager* manager_;  // MAPI verification only
  Check check_;
  std::uint64_t& coefficients_;
  int order_;
  spectral::ConvolutionArena arena_;
  RowSet root_;                     // depth 0: the constant-zero spectrum
  std::vector<RowSet> slots_;       // per-depth reusable row sets
  std::vector<const RowSet*> stack_;  // the live row set of each depth
  // MAPI per-row ADD rebuild scratch, reused across all rows and
  // combinations (growth credited to the arena stats).
  std::vector<std::pair<Mask, std::int64_t>> add_scratch_;
};

}  // namespace sani::verify
