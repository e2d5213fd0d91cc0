#include "circuit/cone_hash.h"

#include <algorithm>
#include <stdexcept>

#include "util/sha256.h"

namespace sani::circuit {

namespace {

using util::Sha256;

// Role kinds for primary inputs.  An input that carries no annotation still
// needs a distinct identity (two unclassified inputs are not interchangeable
// functions), so it is numbered by its ordinal among unclassified inputs —
// conservative: reordering such inputs dirties the digest, which is safe.
enum RoleKind : std::uint32_t {
  kRoleShare = 0,
  kRoleRandom = 1,
  kRolePublic = 2,
  kRoleUnclassified = 3,
};

struct Role {
  std::uint32_t kind = kRoleUnclassified;
  std::uint32_t a = 0;  // secret group / annotation ordinal
  std::uint32_t b = 0;  // share index
};

void put_u32(Sha256& h, std::uint32_t v) {
  const std::uint8_t le[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  h.update(le, sizeof le);
}

void put_role(Sha256& h, const Role& r) {
  put_u32(h, r.kind);
  put_u32(h, r.a);
  put_u32(h, r.b);
}

/// Role of every wire (meaningful for inputs only); unclassified inputs are
/// numbered in declaration order.
std::vector<Role> input_roles(const Gadget& gadget) {
  const Netlist& nl = gadget.netlist;
  std::vector<Role> roles(nl.num_wires());
  std::vector<bool> classified(nl.num_wires(), false);
  for (std::size_t g = 0; g < gadget.spec.secrets.size(); ++g) {
    const auto& shares = gadget.spec.secrets[g].shares;
    for (std::size_t j = 0; j < shares.size(); ++j) {
      roles[shares[j]] = {kRoleShare, static_cast<std::uint32_t>(g),
                          static_cast<std::uint32_t>(j)};
      classified[shares[j]] = true;
    }
  }
  for (std::size_t i = 0; i < gadget.spec.randoms.size(); ++i) {
    roles[gadget.spec.randoms[i]] = {kRoleRandom,
                                     static_cast<std::uint32_t>(i), 0};
    classified[gadget.spec.randoms[i]] = true;
  }
  for (std::size_t i = 0; i < gadget.spec.publics.size(); ++i) {
    roles[gadget.spec.publics[i]] = {kRolePublic,
                                     static_cast<std::uint32_t>(i), 0};
    classified[gadget.spec.publics[i]] = true;
  }
  std::uint32_t unclassified = 0;
  for (WireId w = 0; w < nl.num_wires(); ++w) {
    if (nl.node(w).kind == GateKind::kInput && !classified[w])
      roles[w] = {kRoleUnclassified, unclassified++, 0};
  }
  return roles;
}

}  // namespace

std::string ConeDigest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(64, '0');
  for (int i = 0; i < 32; ++i) {
    out[2 * i] = digits[bytes[i] >> 4];
    out[2 * i + 1] = digits[bytes[i] & 0xF];
  }
  return out;
}

std::vector<ConeDigest> function_digests(const dd::Manager& manager,
                                         const std::vector<dd::NodeId>& roots) {
  // slot[n] indexes node n's digest in `nodes`; the post-order walk fills
  // a node's children before the node itself.
  std::vector<std::uint32_t> slot(manager.node_capacity());
  std::vector<ConeDigest> nodes;
  manager.visit_postorder(roots, [&](dd::NodeId n) {
    Sha256 h;
    if (manager.is_terminal(n)) {
      // A terminal's first word is ~0, which no variable id takes.
      const auto value = static_cast<std::uint64_t>(manager.terminal_value(n));
      put_u32(h, ~std::uint32_t{0});
      put_u32(h, static_cast<std::uint32_t>(value));
      put_u32(h, static_cast<std::uint32_t>(value >> 32));
    } else {
      put_u32(h, static_cast<std::uint32_t>(manager.node_var(n)));
      for (const dd::NodeId child : {manager.node_lo(n), manager.node_hi(n)}) {
        const ConeDigest& d = nodes[slot[child]];
        h.update(d.bytes.data(), d.bytes.size());
      }
    }
    slot[n] = static_cast<std::uint32_t>(nodes.size());
    h.digest(nodes.emplace_back().bytes.data());
  });
  std::vector<ConeDigest> out;
  out.reserve(roots.size());
  for (dd::NodeId r : roots) out.push_back(nodes[slot[r]]);
  return out;
}

ConeDigest combine_cone_digest(std::uint32_t tag, std::int32_t group,
                               std::int32_t share_index,
                               std::vector<ConeDigest> members) {
  std::sort(members.begin(), members.end());
  Sha256 h;
  h.update("sani-cone-v1", 12);
  put_u32(h, tag);
  put_u32(h, static_cast<std::uint32_t>(group));
  put_u32(h, static_cast<std::uint32_t>(share_index));
  put_u32(h, static_cast<std::uint32_t>(members.size()));
  for (const ConeDigest& m : members)
    h.update(m.bytes.data(), m.bytes.size());
  ConeDigest out;
  h.digest(out.bytes.data());
  return out;
}

ConeDigest varmap_digest(const Gadget& gadget, const VarMap& vars) {
  const std::vector<Role> roles = input_roles(gadget);
  Sha256 h;
  h.update("sani-varmap-v1", 14);
  put_u32(h, static_cast<std::uint32_t>(vars.num_vars));
  for (int v = 0; v < vars.num_vars; ++v) {
    const WireId w = vars.var_to_wire[v];
    if (w >= roles.size())
      throw std::logic_error("varmap_digest: variable bound to unknown wire");
    put_role(h, roles[w]);
  }
  ConeDigest out;
  h.digest(out.bytes.data());
  return out;
}

}  // namespace sani::circuit
