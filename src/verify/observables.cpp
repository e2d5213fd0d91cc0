#include "verify/observables.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "circuit/cone.h"
#include "circuit/ilang.h"

namespace sani::verify {

namespace {

using circuit::GateKind;
using circuit::kNoWire;
using circuit::WireId;

/// Signature of an observable's function tuple, for deduplication.
std::vector<dd::NodeId> signature(const std::vector<dd::Bdd>& fns) {
  std::vector<dd::NodeId> sig;
  sig.reserve(fns.size());
  for (const auto& f : fns) sig.push_back(f.node());
  std::sort(sig.begin(), sig.end());
  return sig;
}

bool is_constant(const dd::Bdd& f) { return f.is_zero() || f.is_one(); }

Observable make_output(const circuit::Gadget& gadget,
                       const circuit::Unfolded& unfolded, int group, int index) {
  const WireId w = gadget.spec.outputs[group].shares[index];
  Observable o;
  o.kind = Observable::Kind::kOutput;
  o.name = gadget.netlist.node(w).name;
  o.wire = w;
  o.fns = {unfolded.wire_fn[w]};
  o.output_group = group;
  o.output_share_index = index;
  return o;
}

Observable make_probe(const circuit::Gadget& gadget,
                      const circuit::Unfolded& unfolded, WireId w,
                      const std::vector<std::vector<WireId>>* cones) {
  Observable o;
  o.kind = Observable::Kind::kProbe;
  o.name = gadget.netlist.node(w).name;
  o.wire = w;
  if (cones) {
    for (WireId src : (*cones)[w]) o.fns.push_back(unfolded.wire_fn[src]);
  } else {
    o.fns = {unfolded.wire_fn[w]};
  }
  return o;
}

/// Records each observable's canonical wire position.
void assign_positions(const circuit::Gadget& gadget, ObservableSet& set) {
  const std::vector<WireId> order = circuit::canonical_wire_order(gadget);
  std::vector<std::uint32_t> position(order.size());
  for (std::size_t p = 0; p < order.size(); ++p)
    position[order[p]] = static_cast<std::uint32_t>(p);
  for (Observable& o : set.items) o.position = position[o.wire];
}

}  // namespace

ObservableSet build_observables(const circuit::Gadget& gadget,
                                const circuit::Unfolded& unfolded,
                                const ProbeModelOptions& options) {
  ObservableSet set;
  std::set<std::vector<dd::NodeId>> seen;

  std::vector<std::vector<WireId>> cones;
  if (options.glitch_robust) cones = circuit::glitch_cones(gadget.netlist);
  const auto* cone_ptr = options.glitch_robust ? &cones : nullptr;

  for (std::size_t g = 0; g < gadget.spec.outputs.size(); ++g) {
    for (std::size_t j = 0; j < gadget.spec.outputs[g].shares.size(); ++j) {
      Observable o = make_output(gadget, unfolded, static_cast<int>(g),
                                 static_cast<int>(j));
      if (options.dedupe && !seen.insert(signature(o.fns)).second) continue;
      set.items.push_back(std::move(o));
    }
  }
  set.num_outputs = set.items.size();

  for (WireId w = 0; w < gadget.netlist.num_wires(); ++w) {
    const GateKind kind = gadget.netlist.node(w).kind;
    if (kind == GateKind::kConst0 || kind == GateKind::kConst1) continue;
    if (kind == GateKind::kInput && !options.include_inputs) continue;
    // Output wires stay in the probe universe: in the standard model the
    // probe duplicates the output observable and is deduplicated away, but
    // in the robust model its glitch cone can reveal strictly more than the
    // stable output value (the classic register-free DOM leak).
    Observable o = make_probe(gadget, unfolded, w, cone_ptr);
    if (o.fns.empty()) continue;
    if (o.fns.size() == 1 && is_constant(o.fns.front())) continue;
    if (options.dedupe && !seen.insert(signature(o.fns)).second) continue;
    set.items.push_back(std::move(o));
  }
  assign_positions(gadget, set);
  return set;
}

ObservableSet build_observables_with_probes(
    const circuit::Gadget& gadget, const circuit::Unfolded& unfolded,
    const std::vector<std::string>& probe_names,
    const ProbeModelOptions& options) {
  ObservableSet set;

  std::vector<std::vector<WireId>> cones;
  if (options.glitch_robust) cones = circuit::glitch_cones(gadget.netlist);
  const auto* cone_ptr = options.glitch_robust ? &cones : nullptr;

  for (std::size_t g = 0; g < gadget.spec.outputs.size(); ++g) {
    for (std::size_t j = 0; j < gadget.spec.outputs[g].shares.size(); ++j) {
      Observable o = make_output(gadget, unfolded, static_cast<int>(g),
                                 static_cast<int>(j));
      set.items.push_back(std::move(o));
    }
  }
  set.num_outputs = set.items.size();

  for (const std::string& name : probe_names) {
    const WireId w = gadget.netlist.find(name);
    if (w == kNoWire)
      throw std::invalid_argument("no wire named '" + name + "'");
    Observable o = make_probe(gadget, unfolded, w, cone_ptr);
    set.items.push_back(std::move(o));
  }
  assign_positions(gadget, set);
  return set;
}

}  // namespace sani::verify
