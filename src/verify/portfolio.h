#pragma once
// Computed-table sizing for the unfolding manager of the default engine.
//
// DIRECT verifies on flat spectra and owns no decision-diagram manager, so
// the only diagram work of a default run is the unfolding.  A fixed
// 2^18-entry table costs more to zero than a whole small-gadget
// verification; the table is sized from netlist structure instead.  The
// paper's engines keep their configured size.  A pure function of the
// netlist: no wall clock, no randomness.

#include "circuit/spec.h"

namespace sani::verify {

/// Computed-table bits for unfolding `gadget`, bounded by the configured
/// `ceiling` (the user's --cache-bits stays an upper bound).
int suggest_unfold_cache_bits(const circuit::Gadget& gadget, int ceiling);

}  // namespace sani::verify
