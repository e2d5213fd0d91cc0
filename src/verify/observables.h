#pragma once
// The observable universe: declared output shares plus internal probes.
//
// This realizes the "unfolding" product of Sec. III-A: every intermediate
// wire of the gadget becomes a candidate probe, with its Boolean function
// already built as a BDD.  In the robust model an observable carries the
// whole tuple of stable-source functions of its glitch cone.

#include <string>
#include <vector>

#include "circuit/spec.h"
#include "circuit/unfold.h"
#include "dd/bdd.h"
#include "verify/types.h"

namespace sani::verify {

struct Observable {
  enum class Kind : std::uint8_t { kOutput, kProbe };

  Kind kind = Kind::kProbe;
  std::string name;
  circuit::WireId wire = circuit::kNoWire;
  /// The wire's position in circuit::canonical_wire_order: what SANIBAS
  /// records in place of the name.
  std::uint32_t position = 0;

  /// The functions the adversary learns from this observation.  Exactly one
  /// entry in the standard model; the glitch-cone tuple in the robust model.
  std::vector<dd::Bdd> fns;

  /// For outputs: position within the gadget's output groups (used by PINI).
  int output_group = -1;
  int output_share_index = -1;
};

struct ObservableSet {
  std::vector<Observable> items;  // outputs first, then probes
  std::size_t num_outputs = 0;

  std::size_t size() const { return items.size(); }
};

/// Builds the universe from an unfolded gadget under the given model.
ObservableSet build_observables(const circuit::Gadget& gadget,
                                const circuit::Unfolded& unfolded,
                                const ProbeModelOptions& options);

/// Restricts the universe to the declared outputs plus the named probe
/// wires only — used to analyse fixed configurations like the Fig. 1/2
/// composition example.
ObservableSet build_observables_with_probes(
    const circuit::Gadget& gadget, const circuit::Unfolded& unfolded,
    const std::vector<std::string>& probe_names,
    const ProbeModelOptions& options = {});

}  // namespace sani::verify
