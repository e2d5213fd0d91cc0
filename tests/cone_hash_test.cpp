// Cone-digest suite (circuit/cone_hash.h, verify::index_cones): the
// contract the incremental re-verification path rests on.  An observable's
// digest hashes its kind, its output position and its member functions, so
// it must survive every function-preserving rewrite (renaming, fan-in
// swaps, cell order, the canonical ILANG round trip, a deduplicated
// buffer, XOR re-association), must change with a function, an output
// position, an observable kind or a glitch cone's source set, and must not
// depend on the engine that built the Basis — in both the standard and the
// glitch-robust probe model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "circuit/builder.h"
#include "circuit/cone_hash.h"
#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "verify/basis.h"
#include "verify/observables.h"
#include "verify/types.h"

namespace sani::verify {
namespace {

// The observable universe of `g` with its cone index, built the way the
// store's cold path builds it.
struct Indexed {
  ObservableSet obs;  // member functions dropped with their manager
  ConeIndex index;

  const circuit::ConeDigest& digest_of(const std::string& name,
                                       Observable::Kind kind) const {
    for (std::size_t i = 0; i < obs.size(); ++i)
      if (obs.items[i].name == name && obs.items[i].kind == kind)
        return index.digests[i];
    ADD_FAILURE() << "no observable " << name;
    return index.digests.front();
  }
};

Indexed indexed(const circuit::Gadget& g, const ProbeModelOptions& probes,
                circuit::VarOrder order = circuit::VarOrder::kDeclared) {
  circuit::Unfolded u = circuit::unfold(g, 18, order);
  Indexed out{build_observables(g, u, probes), {}};
  out.index = index_cones(g, u, out.obs);
  // The functions live in u's manager, which dies on return; the tests read
  // kinds, names, wires and digests only.
  for (Observable& o : out.obs.items) o.fns.clear();
  return out;
}

std::multiset<std::string> digest_set(const Indexed& x) {
  std::multiset<std::string> out;
  for (const auto& d : x.index.digests) out.insert(d.hex());
  return out;
}

std::vector<circuit::ConeDigest> output_digests(const Indexed& x) {
  return {x.index.digests.begin(),
          x.index.digests.begin() +
              static_cast<std::ptrdiff_t>(x.obs.num_outputs)};
}

ProbeModelOptions model(bool robust) {
  ProbeModelOptions probes;
  probes.glitch_robust = robust;
  return probes;
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

// A two-share XOR pipeline q0 = (a0 ^ r) ^ b0, q1 = (b1 ^ r) ^ a1, and
// rewrites of it.  Every variant declares its inputs alike, so all bind
// roles to variables the same way.
enum class Variant {
  kBase,
  kBuffered,       // q0 reads a buffer of a0 ^ r: same functions
  kReassociated,   // q0 = a0 ^ (r ^ b0): same outputs, one new probe
  kOutputsSwapped, // the output group lists q1 first
  kWiderCone,      // q0 = (a0 ^ r ^ a1) ^ (a1 ^ b0): same function, and
                   // its glitch cone gains a1
};

circuit::Gadget pipeline(Variant v) {
  circuit::GadgetBuilder b("pipeline");
  const auto a = b.secret("a", 2);
  const auto s = b.secret("b", 2);
  const circuit::WireId r = b.random("r");
  circuit::WireId q0;
  if (v == Variant::kReassociated) {
    q0 = b.xor_(a[0], b.xor_(r, s[0], "u0"), "q0");
  } else if (v == Variant::kWiderCone) {
    const circuit::WireId t0 = b.xor_(a[0], r, "t0");
    q0 = b.xor_(b.xor_(t0, a[1], "v0"), b.xor_(a[1], s[0], "v1"), "q0");
  } else {
    circuit::WireId t0 = b.xor_(a[0], r, "t0");
    if (v == Variant::kBuffered) t0 = b.buf(t0, "t0b");
    q0 = b.xor_(t0, s[0], "q0");
  }
  const circuit::WireId q1 = b.xor_(b.xor_(s[1], r, "t1"), a[1], "q1");
  if (v == Variant::kOutputsSwapped)
    b.output_group("q", {q1, q0});
  else
    b.output_group("q", {q0, q1});
  return b.build();
}

// --- Invariance -----------------------------------------------------------

TEST(ConeHash, DeterministicAcrossIndependentBuilds) {
  for (const char* name : {"dom-1", "isw-2", "ti-1"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    for (bool robust : {false, true}) {
      const Indexed a = indexed(g, model(robust));
      const Indexed b = indexed(g, model(robust));
      ASSERT_TRUE(a.index.available) << name;
      ASSERT_EQ(a.index.digests.size(), a.obs.size()) << name;
      EXPECT_EQ(a.index.digests, b.index.digests)
          << name << " robust=" << robust;
      EXPECT_EQ(a.index.varmap, b.index.varmap)
          << name << " robust=" << robust;
    }
  }
}

TEST(ConeHash, WireRenamingPreservesEveryDigest) {
  for (const char* name : {"dom-2", "isw-1", "hpc2-1"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget renamed = circuit::with_renamed_wires(g, "zz_");
    for (bool robust : {false, true}) {
      const Indexed a = indexed(g, model(robust));
      const Indexed b = indexed(renamed, model(robust));
      // WireIds are preserved by the rename, so the universes are parallel:
      // digests must match element by element, not just as a set.
      EXPECT_EQ(a.index.digests, b.index.digests)
          << name << " robust=" << robust;
      EXPECT_EQ(a.index.varmap, b.index.varmap)
          << name << " robust=" << robust;
    }
  }
}

TEST(ConeHash, FaninSwapPreservesEveryDigest) {
  // A swap changes the netlist but no function: every observable keeps its
  // index and its digest, so a resubmission replays every verdict.
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::WireId w = circuit::first_swappable_gate(g);
    ASSERT_NE(w, circuit::kNoWire) << name;
    const circuit::Gadget edited = circuit::with_swapped_fanins(g, w);
    for (bool robust : {false, true}) {
      const Indexed a = indexed(g, model(robust));
      const Indexed b = indexed(edited, model(robust));
      EXPECT_EQ(a.index.varmap, b.index.varmap) << name;
      EXPECT_EQ(a.index.digests, b.index.digests)
          << name << " robust=" << robust;
    }
  }
}

TEST(ConeHash, RoundTripThroughCanonicalIlangPreservesDigestSet) {
  // The canonical writer renames every net positionally and may reorder
  // cells and input declarations.  Digests are relative to the varmap
  // fingerprint: wherever it survives the round trip, the outputs keep
  // their digests and the universe its digest set.
  int compared = 0;
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget back =
        circuit::parse_ilang_string(circuit::write_ilang_string(g));
    for (bool robust : {false, true}) {
      const Indexed a = indexed(g, model(robust));
      const Indexed b = indexed(back, model(robust));
      ASSERT_EQ(a.obs.num_outputs, b.obs.num_outputs) << name;
      // The canonical form is a fixed point of itself.
      const Indexed c = indexed(
          circuit::parse_ilang_string(circuit::write_ilang_string(back)),
          model(robust));
      EXPECT_EQ(b.index.varmap, c.index.varmap) << name;
      EXPECT_EQ(b.index.digests, c.index.digests) << name;
      if (a.index.varmap != b.index.varmap) continue;
      ++compared;
      EXPECT_EQ(output_digests(a), output_digests(b)) << name;
      EXPECT_EQ(digest_set(a), digest_set(b))
          << name << " robust=" << robust;
    }
  }
  EXPECT_GT(compared, 0);
}

// Two spellings of the same two-share XOR pipeline whose internal cells are
// declared in opposite order.  Wire ids differ, functions do not.
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
    const Indexed oa = indexed(a, model(robust));
    const Indexed ob = indexed(b, model(robust));
    EXPECT_EQ(digest_set(oa), digest_set(ob)) << "robust=" << robust;
    EXPECT_EQ(output_digests(oa), output_digests(ob)) << "robust=" << robust;
    // Inputs are declared identically, so the role→variable binding is too.
    EXPECT_EQ(oa.index.varmap, ob.index.varmap) << "robust=" << robust;
  }
}

TEST(ConeHash, DedupedBufferPreservesEveryDigest) {
  // The buffer's probe repeats a0 ^ r (its glitch cone repeats that gate's
  // sources), so dedupe drops it and the universe is the base one.
  for (bool robust : {false, true}) {
    const Indexed a = indexed(pipeline(Variant::kBase), model(robust));
    const Indexed b = indexed(pipeline(Variant::kBuffered), model(robust));
    ASSERT_EQ(a.obs.size(), b.obs.size()) << "robust=" << robust;
    EXPECT_EQ(a.index.digests, b.index.digests) << "robust=" << robust;
    EXPECT_EQ(a.index.varmap, b.index.varmap);
  }
}

TEST(ConeHash, XorReassociationKeepsTheOutputDigests) {
  // q0 keeps its function and its glitch cone's sources {a0, r, b0}; only
  // the inner probe (a0 ^ r becomes r ^ b0) is a different function.
  for (bool robust : {false, true}) {
    const Indexed a = indexed(pipeline(Variant::kBase), model(robust));
    const Indexed b = indexed(pipeline(Variant::kReassociated), model(robust));
    EXPECT_EQ(output_digests(a), output_digests(b)) << "robust=" << robust;
    EXPECT_EQ(a.digest_of("q0", Observable::Kind::kOutput),
              b.digest_of("q0", Observable::Kind::kOutput));
    EXPECT_NE(a.digest_of("t0", Observable::Kind::kProbe),
              b.digest_of("u0", Observable::Kind::kProbe));
  }
}

// --- Sensitivity ----------------------------------------------------------

// Checks a one-gate, function-changing edit of `g`: observables are matched
// by kind and wire (the edit can change which duplicate dedupe keeps); some
// digests change, none outside the edited gate's fan-out does, and, where
// `own_probe_changes`, neither does the edited gate's own probe.
void expect_edit_changes_its_cones(const std::string& name,
                                   const circuit::Gadget& g,
                                   const circuit::Gadget& edited, bool robust,
                                   bool own_probe_changes) {
  // The edited gate: the first wire whose node differs.
  circuit::WireId w = 0;
  const auto same = [&](circuit::WireId v) {
    const circuit::GateNode& x = g.netlist.node(v);
    const circuit::GateNode& y = edited.netlist.node(v);
    return x.kind == y.kind && x.fanin[0] == y.fanin[0] &&
           x.fanin[1] == y.fanin[1] && x.fanin[2] == y.fanin[2];
  };
  while (same(w)) ++w;

  const Indexed a = indexed(g, model(robust));
  const Indexed b = indexed(edited, model(robust));
  EXPECT_EQ(a.index.varmap, b.index.varmap) << name;
  std::map<std::pair<Observable::Kind, circuit::WireId>, std::size_t> in_b;
  for (std::size_t j = 0; j < b.obs.size(); ++j)
    in_b[{b.obs.items[j].kind, b.obs.items[j].wire}] = j;
  std::size_t changed = 0, unchanged = 0;
  for (std::size_t i = 0; i < a.obs.size(); ++i) {
    const Observable& o = a.obs.items[i];
    const auto j = in_b.find({o.kind, o.wire});
    if (j == in_b.end()) continue;
    const bool differs = a.index.digests[i] != b.index.digests[j->second];
    ++(differs ? changed : unchanged);
    // Outside the edited gate's fan-out no function, and no glitch cone,
    // changes.
    if (!cone_contains(g, o.wire, w)) {
      EXPECT_FALSE(differs) << name << " " << o.name;
    }
    if (own_probe_changes && o.wire == w &&
        o.kind == Observable::Kind::kProbe) {
      EXPECT_TRUE(differs) << name;
    }
  }
  EXPECT_GT(changed, 0u) << name;
  EXPECT_GT(unchanged, 0u) << name;
}

TEST(ConeHash, AndRewireChangesTheRewiredCones) {
  // The rewired gate's probe observes the new operand in both models.
  for (const char* name : {"dom-2", "isw-2", "keccak-2"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const std::optional<circuit::Gadget> edited =
        circuit::with_first_and_rewired(g);
    ASSERT_TRUE(edited.has_value()) << name;
    for (bool robust : {false, true}) {
      SCOPED_TRACE(robust ? "robust" : "standard");
      expect_edit_changes_its_cones(name, g, *edited, robust, true);
    }
  }
}

TEST(ConeHash, XorComplementChangesTheComplementedCones) {
  // The complemented gate's own function changes, so its standard probe
  // does; a robust probe observes the gate's stable sources, which keep
  // their functions, so there only the cones past a register or an output
  // change.
  for (const char* name : {"dom-2", "isw-2", "keccak-2", "hpc2-1"}) {
    const circuit::Gadget g = gadgets::by_name(name);
    const std::optional<circuit::Gadget> edited =
        circuit::with_xor_complemented(g);
    ASSERT_TRUE(edited.has_value()) << name;
    for (bool robust : {false, true}) {
      SCOPED_TRACE(robust ? "robust" : "standard");
      expect_edit_changes_its_cones(name, g, *edited, robust, !robust);
    }
  }
}

TEST(ConeHash, OutputSharePositionIsPartOfTheDigest) {
  // Swapping the two output shares moves each function to the other share
  // index: the same function at another position is another observable.
  for (bool robust : {false, true}) {
    const Indexed a = indexed(pipeline(Variant::kBase), model(robust));
    const Indexed b = indexed(pipeline(Variant::kOutputsSwapped),
                              model(robust));
    ASSERT_EQ(a.obs.num_outputs, 2u);
    ASSERT_EQ(b.obs.items[1].name, "q0");
    EXPECT_NE(a.index.digests[0], b.index.digests[1]);
    EXPECT_NE(a.index.digests[1], b.index.digests[0]);
    // The probes are untouched.
    EXPECT_EQ(std::vector<circuit::ConeDigest>(a.index.digests.begin() + 2,
                                               a.index.digests.end()),
              std::vector<circuit::ConeDigest>(b.index.digests.begin() + 2,
                                               b.index.digests.end()));
  }
}

TEST(ConeHash, ProbeAndOutputOfOneWireDiffer) {
  // Without dedupe the probe on an output wire stays in the universe next
  // to the output; the two have one function but different roles.
  ProbeModelOptions probes;
  probes.dedupe = false;
  const Indexed x = indexed(pipeline(Variant::kBase), probes);
  EXPECT_NE(x.digest_of("q0", Observable::Kind::kOutput),
            x.digest_of("q0", Observable::Kind::kProbe));
}

TEST(ConeHash, GlitchConeGainingASourceChangesTheRobustDigest) {
  // q0 keeps its function, so its output digest holds in both models and
  // its standard probe digest would too; the robust probe on q0 observes
  // a1 as well and must digest differently.
  for (bool robust : {false, true}) {
    const Indexed a = indexed(pipeline(Variant::kBase), model(robust));
    const Indexed b = indexed(pipeline(Variant::kWiderCone), model(robust));
    EXPECT_EQ(a.digest_of("q0", Observable::Kind::kOutput),
              b.digest_of("q0", Observable::Kind::kOutput));
    if (robust) {
      EXPECT_NE(a.digest_of("q0", Observable::Kind::kProbe),
                b.digest_of("q0", Observable::Kind::kProbe));
    }
  }
  ProbeModelOptions no_dedupe;
  no_dedupe.dedupe = false;
  EXPECT_EQ(indexed(pipeline(Variant::kBase), no_dedupe)
                .digest_of("q0", Observable::Kind::kProbe),
            indexed(pipeline(Variant::kWiderCone), no_dedupe)
                .digest_of("q0", Observable::Kind::kProbe));
}

TEST(ConeHash, RobustAndStandardDigestsAreDistinctUniverses) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  // dom-1 has registers, so some glitch cones widen; the two models must
  // not share a digest namespace wholesale.
  EXPECT_NE(digest_set(indexed(g, model(false))),
            digest_set(indexed(g, model(true))));
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

TEST(ConeHash, FunctionDigestsAreCanonicalAcrossManagers) {
  // (x0 & x1) ^ x2 built in two managers, in different operation orders
  // and next to different garbage, digests alike; other functions do not.
  dd::Manager m1(3), m2(3);
  const dd::Bdd f1 = (dd::Bdd::var(m1, 0) & dd::Bdd::var(m1, 1)) ^
                     dd::Bdd::var(m1, 2);
  const dd::Bdd junk = dd::Bdd::var(m2, 1) | dd::Bdd::var(m2, 2);
  const dd::Bdd f2 = dd::Bdd::var(m2, 2) ^
                     (dd::Bdd::var(m2, 1) & dd::Bdd::var(m2, 0));
  const dd::Bdd g1 = dd::Bdd::var(m1, 0) ^ dd::Bdd::var(m1, 2);
  const std::vector<circuit::ConeDigest> d1 =
      circuit::function_digests(m1, {f1.node(), g1.node(), f1.node()});
  const std::vector<circuit::ConeDigest> d2 =
      circuit::function_digests(m2, {f2.node(), junk.node()});
  ASSERT_EQ(d1.size(), 3u);
  EXPECT_EQ(d1[0], d2[0]);
  EXPECT_EQ(d1[0], d1[2]);
  EXPECT_NE(d1[0], d1[1]);
  EXPECT_NE(d2[0], d2[1]);
  // Constants are functions too, and distinct ones.
  const std::vector<circuit::ConeDigest> c =
      circuit::function_digests(m1, {m1.zero(), m1.one()});
  EXPECT_NE(c[0], c[1]);
  EXPECT_NE(c[0], circuit::ConeDigest{});
}

}  // namespace
}  // namespace sani::verify
