#pragma once
// The backend registry: one entry per verification engine.
//
// Single source of truth for the engine list — the CLI resolves --engine
// names here, the driver constructs backends through the factory, and the
// runtime reads the capability flags to decide what the Basis must carry
// and whether the Driver must thaw the Basis' frozen DD forest into a
// private manager before verification.

#include <memory>
#include <string>
#include <vector>

#include "verify/backends/backend.h"
#include "verify/types.h"

namespace sani::verify {

struct BackendInfo {
  EngineKind kind;
  const char* name;     // CLI spelling ("lil", "map", "mapi", "fujita",
                        // "direct")
  const char* summary;  // one-line description for --help / errors
  bool needs_region;    // verification reads RowCheck's per-signature
                        // region or predicate; false = the backend tests
                        // each coefficient against the Checker directly
  bool needs_thaw;      // verification multiplies against predicate BDDs:
                        // the Driver creates a private dd::Manager and thaws
                        // the Basis' frozen forest into it (no unfolding
                        // replay — the Basis is manager-independent for
                        // every engine)
  bool needs_spectra;   // Basis must carry the hash-map base spectra
  bool needs_lil;       // Basis must carry the sorted-list copies
  bool frozen_fns;      // Basis must freeze the XOR-subset function BDDs
  bool frozen_spectra;  // Basis must freeze the base-spectrum ADDs
  bool dense_spectra;   // base spectra from the support-local dense FWHT
                        // (FlatSpectrum::from_bdd) instead of the paper's
                        // Fujita transform
  std::unique_ptr<Backend> (*make)(const BackendContext& ctx);
};

/// All registered backends, in EngineKind order.
const std::vector<BackendInfo>& backend_registry();

/// Registry entry of `kind` (every EngineKind is registered).
const BackendInfo& backend_info(EngineKind kind);

/// Registry entry with CLI name `name`, or nullptr if unknown.
const BackendInfo* backend_by_name(const std::string& name);

/// "lil, map, mapi, fujita, direct" — for usage text and error messages.
std::string backend_name_list();

}  // namespace sani::verify
