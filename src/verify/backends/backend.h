#pragma once
// The engine backend interface (the mutable layer of the pipeline).
//
// A backend maintains the engine-specific representation of the rows at the
// current combination: a stack of row sets, one level per observable on the
// enumeration path.  The per-observable base data lives in the shared,
// immutable verify::Basis; for the manager-bound representations it arrives
// pre-thawed (the Driver imports the Basis' frozen forest into its private
// manager and hands the handles over).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dd/bdd.h"
#include "util/mask.h"
#include "obs/clock.h"
#include "verify/basis.h"
#include "verify/checker.h"
#include "verify/observables.h"
#include "verify/types.h"

namespace sani::verify {

/// Construction context for a backend.  `manager`/`thawed`/`rho_zero` are
/// only set for engines whose registry entry has needs_thaw (the ADD
/// verification step and the FUJITA transform are manager-bound); scan
/// backends run entirely on the shared Basis.
struct BackendContext {
  std::shared_ptr<const Basis> basis;
  dd::Manager* manager = nullptr;
  /// Handles of the Basis' frozen roots, thawed into `manager` by the
  /// Driver; indexed by Basis::frozen_fn_roots / frozen_spectrum_roots.
  const std::vector<dd::Add>* thawed = nullptr;
  dd::Bdd rho_zero;  // FUJITA set-level check
  PhaseTimers* timers = nullptr;
  std::uint64_t* coefficients = nullptr;
  /// Allocation counters of the flat convolution path (owned by the
  /// Driver); backends credit every scratch/row buffer growth here so the
  /// zero-per-combination-allocation property stays observable.
  spectral::ArenaStats* arena_stats = nullptr;
  int order = 1;  // maximum stack depth
};

/// Per-combination inputs of the row check.  The Driver fills `checker` and
/// `row` itself; the region fields come from the RowCheck layer and are
/// only filled for engines whose registry entry has needs_region.
struct RowCheckQuery {
  const Checker* checker = nullptr;         // DIRECT
  const RowContext* row = nullptr;          // DIRECT
  dd::Bdd violation_region;                 // ADD backends
  const ForbiddenRegion* region = nullptr;  // scan backends
  std::uint64_t* coefficients = nullptr;    // region lookups are counted here
};

/// Engine-specific representation of the rows at the current combination.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Builds the root row and wires up any manager-bound base data (already
  /// thawed by the Driver).  The shared, manager-independent base spectra
  /// are prepared once in build_basis().
  virtual void prepare() = 0;

  /// Extends the current combination by the last element of `path`; the
  /// row set becomes the cross product of the previous rows with the
  /// observable's XOR-subsets.
  virtual void push(const std::vector<int>& path) = 0;
  virtual void pop() = 0;

  /// Applies the per-row check to every row of the current combination.
  virtual std::optional<Mask> check_rows(const RowCheckQuery& q) = 0;

  /// Unions the rho=0 share supports of the current rows into V (per
  /// secret), for the set-level check.
  virtual void accumulate_deps(std::vector<Mask>& V) = 0;
};

}  // namespace sani::verify
