#include "circuit/edit.h"

#include <stdexcept>
#include <vector>

namespace sani::circuit {

namespace {

bool is_commutative2(GateKind kind) {
  switch (kind) {
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kXor:
    case GateKind::kXnor:
    case GateKind::kNand:
    case GateKind::kNor:
      return true;
    default:
      return false;
  }
}

/// Gates that pass a complemented operand on as a complemented output.
bool is_affine(GateKind kind) {
  switch (kind) {
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kXor:
    case GateKind::kXnor:
    case GateKind::kReg:
      return true;
    default:
      return false;
  }
}

/// Replays `gadget`'s netlist node by node through `edit(w, node)`, which
/// may alter the copy before it is appended.  WireIds are stable, so the
/// spec and output list transfer unchanged.
template <typename EditFn>
Gadget rebuild(const Gadget& gadget, EditFn edit) {
  const Netlist& nl = gadget.netlist;
  Netlist out(nl.name());
  for (WireId w = 0; w < nl.num_wires(); ++w) {
    GateNode node = nl.node(w);
    edit(w, node);
    out.add(node.kind, std::move(node.name), node.fanin[0], node.fanin[1],
            node.fanin[2]);
  }
  for (WireId w : nl.outputs()) out.add_output(w);
  return Gadget{std::move(out), gadget.spec};
}

}  // namespace

Gadget with_renamed_wires(const Gadget& gadget, const std::string& prefix) {
  return rebuild(gadget, [&](WireId, GateNode& node) {
    node.name = prefix + node.name;
  });
}

Gadget with_swapped_fanins(const Gadget& gadget, WireId w) {
  if (w >= gadget.netlist.num_wires())
    throw std::invalid_argument("with_swapped_fanins: no such wire");
  if (!is_commutative2(gadget.netlist.node(w).kind))
    throw std::invalid_argument(
        "with_swapped_fanins: gate is not commutative in its fan-ins");
  return rebuild(gadget, [&](WireId i, GateNode& node) {
    if (i == w) std::swap(node.fanin[0], node.fanin[1]);
  });
}

WireId first_swappable_gate(const Gadget& gadget) {
  const Netlist& nl = gadget.netlist;
  for (WireId w = 0; w < nl.num_wires(); ++w) {
    const GateNode& node = nl.node(w);
    if (is_commutative2(node.kind) && node.fanin[0] != node.fanin[1]) return w;
  }
  return kNoWire;
}

std::optional<Gadget> with_first_and_rewired(const Gadget& gadget) {
  if (gadget.spec.randoms.empty()) return std::nullopt;
  const WireId r0 = gadget.spec.randoms.front();
  bool rewired = false;
  Gadget edited = rebuild(gadget, [&](WireId w, GateNode& node) {
    if (!rewired && node.kind == GateKind::kAnd && r0 < w &&
        node.fanin[0] != r0 && node.fanin[1] != r0) {
      node.fanin[1] = r0;
      rewired = true;
    }
  });
  if (!rewired) return std::nullopt;
  edited.validate();
  return edited;
}

std::optional<Gadget> with_xor_complemented(const Gadget& gadget) {
  const Netlist& nl = gadget.netlist;
  // affine_fanout[w]: every wire computed from w, transitively, is read
  // through affine gates only.  Readers follow their fan-ins in WireId
  // order, so one reverse pass settles each wire after all its readers.
  std::vector<char> affine_fanout(nl.num_wires(), 1);
  for (WireId w = nl.num_wires(); w-- > 0;) {
    const GateNode& node = nl.node(w);
    if (is_affine(node.kind) && affine_fanout[w]) continue;
    for (int i = 0; i < gate_arity(node.kind); ++i)
      affine_fanout[node.fanin[i]] = 0;
  }
  WireId target = kNoWire;
  for (WireId w = 0; w < nl.num_wires() && target == kNoWire; ++w) {
    const GateKind kind = nl.node(w).kind;
    if ((kind == GateKind::kXor || kind == GateKind::kXnor) &&
        affine_fanout[w])
      target = w;
  }
  if (target == kNoWire) return std::nullopt;
  return rebuild(gadget, [&](WireId w, GateNode& node) {
    if (w == target)
      node.kind =
          node.kind == GateKind::kXor ? GateKind::kXnor : GateKind::kXor;
  });
}

}  // namespace sani::circuit
