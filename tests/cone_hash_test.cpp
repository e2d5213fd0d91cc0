// Cone-digest stability suite (circuit/cone_hash.h): the contract the
// incremental re-verification path rests on.  Digests must be invariant
// under wire renaming, cell declaration order and edits outside the cone,
// must change for every observable whose cone contains an edited gate, and
// must be deterministic across independent builds — in both the standard
// and the glitch-robust probe model.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "circuit/cone_hash.h"
#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "verify/observables.h"
#include "verify/types.h"

namespace sani::verify {
namespace {

// Builds the observable universe (and with it the per-observable cone
// digests) the way the verification pipeline does.
ObservableSet observables_of(const circuit::Gadget& g,
                             const ProbeModelOptions& probes,
                             circuit::VarOrder order =
                                 circuit::VarOrder::kDeclared) {
  circuit::Unfolded u = circuit::unfold(g, 18, order);
  ObservableSet obs = build_observables(g, u, probes);
  // The functions live in u's manager, which dies on return; the tests read
  // kinds, names, wires and digests only.
  for (Observable& o : obs.items) o.fns.clear();
  return obs;
}

std::multiset<std::string> digest_set(const ObservableSet& obs) {
  std::multiset<std::string> out;
  for (const auto& d : obs.digests) out.insert(d.hex());
  return out;
}

// Transitive fan-in membership: does `target` lie in the cone of `root`?
bool cone_contains(const circuit::Gadget& g, circuit::WireId root,
                   circuit::WireId target) {
  std::vector<bool> seen(g.netlist.num_wires(), false);
  std::queue<circuit::WireId> q;
  q.push(root);
  seen[root] = true;
  while (!q.empty()) {
    const circuit::WireId w = q.front();
    q.pop();
    if (w == target) return true;
    const circuit::GateNode& n = g.netlist.node(w);
    for (int i = 0; i < n.arity(); ++i) {
      const circuit::WireId f = n.fanin[i];
      if (f != circuit::kNoWire && !seen[f]) {
        seen[f] = true;
        q.push(f);
      }
    }
  }
  return false;
}

TEST(ConeHash, DeterministicAcrossIndependentBuilds) {
  for (const char* name : {"dom-1", "isw-2", "ti-1"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    for (bool robust : {false, true}) {
      ProbeModelOptions probes;
      probes.glitch_robust = robust;
      const ObservableSet a = observables_of(g, probes);
      const ObservableSet b = observables_of(g, probes);
      ASSERT_EQ(a.digests.size(), a.items.size()) << name;
      EXPECT_EQ(a.digests, b.digests) << name << " robust=" << robust;
      EXPECT_EQ(a.varmap, b.varmap) << name << " robust=" << robust;
    }
  }
}

TEST(ConeHash, WireRenamingPreservesEveryDigest) {
  for (const char* name : {"dom-2", "isw-1", "hpc2-1"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget renamed = circuit::with_renamed_wires(g, "zz_");
    for (bool robust : {false, true}) {
      ProbeModelOptions probes;
      probes.glitch_robust = robust;
      const ObservableSet a = observables_of(g, probes);
      const ObservableSet b = observables_of(renamed, probes);
      // WireIds are preserved by the rename, so the universes are parallel:
      // digests must match element by element, not just as a set.
      EXPECT_EQ(a.digests, b.digests) << name << " robust=" << robust;
      EXPECT_EQ(a.varmap, b.varmap) << name << " robust=" << robust;
    }
  }
}

TEST(ConeHash, RoundTripThroughCanonicalIlangPreservesDigestSet) {
  // The canonical writer renames every net positionally — the digest *set*
  // (and the per-output digests, whose order the spec fixes) must survive.
  for (const char* name : {"dom-2", "trichina-1"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget back =
        circuit::parse_ilang_string(circuit::write_ilang_string(g));
    ProbeModelOptions probes;
    const ObservableSet a = observables_of(g, probes);
    const ObservableSet b = observables_of(back, probes);
    EXPECT_EQ(digest_set(a), digest_set(b)) << name;
    ASSERT_EQ(a.num_outputs, b.num_outputs) << name;
    for (std::size_t i = 0; i < a.num_outputs; ++i)
      EXPECT_EQ(a.digests[i], b.digests[i]) << name << " output " << i;
    // The canonical writer may reorder input declarations, which permutes
    // the declared variable order: the varmap fingerprint is *allowed* to
    // change here (that is the mismatch it guards the summaries against).
    // It must however be a fixed point of the canonical form itself.
    const ObservableSet c = observables_of(
        circuit::parse_ilang_string(circuit::write_ilang_string(back)),
        probes);
    EXPECT_EQ(b.varmap, c.varmap) << name;
  }
}

// Two spellings of the same two-share XOR pipeline whose internal cells are
// declared in opposite order.  Wire ids differ, structure does not.
const char* kOrderA = R"(module \reorder
  ## input \a
  ## input \b
  ## random \r
  ## output \q
  wire width 2 input 1 \a
  wire width 2 input 2 \b
  wire width 1 input 3 \r
  wire width 2 output 4 \q
  wire \t0
  wire \t1
  cell $_XOR_ \g0
    connect \A \a [0]
    connect \B \r [0]
    connect \Y \t0
  end
  cell $_XOR_ \g1
    connect \A \b [1]
    connect \B \r [0]
    connect \Y \t1
  end
  cell $_XOR_ \g2
    connect \A \t0
    connect \B \b [0]
    connect \Y \q [0]
  end
  cell $_XOR_ \g3
    connect \A \t1
    connect \B \a [1]
    connect \Y \q [1]
  end
end)";

const char* kOrderB = R"(module \reorder
  ## input \a
  ## input \b
  ## random \r
  ## output \q
  wire width 2 input 1 \a
  wire width 2 input 2 \b
  wire width 1 input 3 \r
  wire width 2 output 4 \q
  wire \u1
  wire \u0
  cell $_XOR_ \h1
    connect \A \b [1]
    connect \B \r [0]
    connect \Y \u1
  end
  cell $_XOR_ \h3
    connect \A \u1
    connect \B \a [1]
    connect \Y \q [1]
  end
  cell $_XOR_ \h0
    connect \A \a [0]
    connect \B \r [0]
    connect \Y \u0
  end
  cell $_XOR_ \h2
    connect \A \u0
    connect \B \b [0]
    connect \Y \q [0]
  end
end)";

TEST(ConeHash, CellDeclarationOrderIsIrrelevant) {
  const circuit::Gadget a = circuit::parse_ilang_string(kOrderA);
  const circuit::Gadget b = circuit::parse_ilang_string(kOrderB);
  for (bool robust : {false, true}) {
    ProbeModelOptions probes;
    probes.glitch_robust = robust;
    const ObservableSet oa = observables_of(a, probes);
    const ObservableSet ob = observables_of(b, probes);
    EXPECT_EQ(digest_set(oa), digest_set(ob)) << "robust=" << robust;
    ASSERT_EQ(oa.num_outputs, ob.num_outputs);
    for (std::size_t i = 0; i < oa.num_outputs; ++i)
      EXPECT_EQ(oa.digests[i], ob.digests[i]) << "output " << i;
    // Inputs are declared identically, so the role→variable binding is too.
    EXPECT_EQ(oa.varmap, ob.varmap) << "robust=" << robust;
  }
}

TEST(ConeHash, EditChangesExactlyTheConesContainingIt) {
  for (const char* name : {"dom-2", "isw-2"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::WireId w = circuit::first_swappable_gate(g);
    ASSERT_NE(w, circuit::kNoWire) << name;
    const circuit::Gadget edited = circuit::with_swapped_fanins(g, w);

    for (bool robust : {false, true}) {
      ProbeModelOptions probes;
      probes.glitch_robust = robust;
      const ObservableSet a = observables_of(g, probes);
      const ObservableSet b = observables_of(edited, probes);
      ASSERT_EQ(a.items.size(), b.items.size()) << name;
      EXPECT_EQ(a.varmap, b.varmap) << name;

      std::size_t changed = 0, unchanged = 0;
      for (std::size_t i = 0; i < a.items.size(); ++i) {
        // WireIds carry over verbatim (the edit only swaps two fan-in
        // slots), so cone membership is computable on either gadget.  In
        // the robust model a probe's observation reaches past registers
        // only as far as the glitch cone, so containment of the *digest*
        // may be narrower than full transitive fan-in: assert only the
        // safe direction there.
        const bool contains = cone_contains(g, a.items[i].wire, w);
        const bool differs = a.digests[i] != b.digests[i];
        if (differs) ++changed;
        else ++unchanged;
        if (!contains) {
          EXPECT_FALSE(differs)
              << name << " observable " << a.items[i].name
              << " outside the edited cone changed digest";
        }
        if (contains && !robust) {
          EXPECT_TRUE(differs)
              << name << " observable " << a.items[i].name
              << " contains the edited gate but kept its digest";
        }
      }
      // The edit is visible somewhere and invisible somewhere else — the
      // mixed situation the clean/dirty classifier exists for.
      EXPECT_GT(changed, 0u) << name << " robust=" << robust;
      EXPECT_GT(unchanged, 0u) << name << " robust=" << robust;
    }
  }
}

TEST(ConeHash, RobustAndStandardDigestsAreDistinctUniverses) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  ProbeModelOptions standard, robust;
  robust.glitch_robust = true;
  const ObservableSet s = observables_of(g, standard);
  const ObservableSet r = observables_of(g, robust);
  // dom-1 has registers, so some glitch cones widen; the two models must
  // not share a digest namespace wholesale.
  EXPECT_NE(digest_set(s), digest_set(r));
}

TEST(ConeHash, VarmapDigestTracksRoleBindingNotNames) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  circuit::Unfolded u1 = circuit::unfold(g, 18, circuit::VarOrder::kDeclared);
  circuit::Unfolded u2 =
      circuit::unfold(g, 18, circuit::VarOrder::kRandomsFirst);
  const circuit::ConeDigest d1 = circuit::varmap_digest(g, u1.vars);
  const circuit::ConeDigest d2 = circuit::varmap_digest(g, u2.vars);
  // A different variable order binds roles to different dd variables: the
  // fingerprint must split them (summaries across orders are not mixable).
  EXPECT_NE(d1, d2);

  const circuit::Gadget renamed = circuit::with_renamed_wires(g, "n_");
  circuit::Unfolded u3 =
      circuit::unfold(renamed, 18, circuit::VarOrder::kDeclared);
  EXPECT_EQ(d1, circuit::varmap_digest(renamed, u3.vars));
}

TEST(ConeHash, WireDigestsHashStructureNotNames) {
  const circuit::Gadget g = gadgets::by_name("isw-1");
  const std::vector<circuit::ConeDigest> base =
      circuit::wire_structure_digests(g);
  ASSERT_EQ(base.size(), g.netlist.num_wires());
  // Every digest is filled in (the all-zero digest would mean a skipped
  // wire) and renaming is invisible at the wire level too.
  const circuit::ConeDigest zero{};
  for (const auto& d : base) EXPECT_NE(d, zero);
  EXPECT_EQ(base,
            circuit::wire_structure_digests(
                circuit::with_renamed_wires(g, "pfx_")));
}

}  // namespace
}  // namespace sani::verify
