#pragma once
// Small netlist edits for resubmission workloads.
//
// The incremental re-verification tests and benches resubmit a gadget
// after a small edit and compare against a cold run of the edited text.
// Two kinds of edit serve them:
//
//   * function-preserving — renaming every net, or swapping the fan-ins of
//     one commutative gate.  Both change the canonical ILANG, hence the
//     artifact key, but no wire's Boolean function, hence no cone digest
//     (circuit/cone_hash.h): a resubmission replays every verdict.
//   * function-changing — complementing one XOR gate whose fan-out is
//     affine, or rewiring one AND gate onto a random.  The cones holding
//     the edited gate change function, so their digests change and the
//     combinations holding them are re-checked; everything else replays.
//     The complement turns each changed function f into f ^ 1, which keeps
//     every probing-security verdict (each observable's distribution is
//     relabelled bijectively), so a secure gadget stays secure and its scan
//     still enumerates every combination.  The rewire changes a function's
//     support and usually makes the gadget insecure.

#include <optional>
#include <string>

#include "circuit/spec.h"

namespace sani::circuit {

/// Copy of `gadget` with every net name prefixed by `prefix`; gate
/// structure, outputs and annotations are untouched (WireIds are preserved,
/// so the spec carries over verbatim).
Gadget with_renamed_wires(const Gadget& gadget, const std::string& prefix);

/// Copy of `gadget` with the first two fan-ins of wire `w` swapped.  Throws
/// std::invalid_argument unless the gate is commutative in those operands
/// (AND/OR/XOR/XNOR/NAND/NOR), so the edit is guaranteed function-
/// preserving.
Gadget with_swapped_fanins(const Gadget& gadget, WireId w);

/// First wire (topological order) whose gate with_swapped_fanins accepts
/// and whose two fan-ins are distinct; kNoWire if the gadget has none.
WireId first_swappable_gate(const Gadget& gadget);

/// Copy of `gadget` whose first XOR (or XNOR) gate with affine fan-out —
/// every wire computed from it, transitively, is read through
/// BUF/NOT/XOR/XNOR/register gates only — becomes an XNOR (an XOR): every
/// function it reaches is complemented, no other changes.  nullopt when no
/// such gate exists.
std::optional<Gadget> with_xor_complemented(const Gadget& gadget);

/// Copy of `gadget` whose first AND gate after the first random reads that
/// random as its second operand: the same wires and observables, one
/// gate's function and support changed.  nullopt when the gadget has no
/// random, or no such AND gate reads two wires other than the random.
std::optional<Gadget> with_first_and_rewired(const Gadget& gadget);

}  // namespace sani::circuit
