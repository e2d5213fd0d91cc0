#pragma once
// Function digests of probe cones (content addressing below whole-gadget
// granularity).
//
// A reduced ordered BDD is a canonical form of its function, so hashing a
// BDD hashes the function itself.  function_digests() computes a Merkle
// digest per node of the shared DAG: a terminal hashes its value, an
// internal node hashes its variable id and the digests of its two children.
// Equal digests therefore mean equal functions whatever the netlist looked
// like: renaming, commutative fan-in swaps, cell reorders, buffers and XOR
// re-association all keep the digest, and any change of function changes
// it.  Nodes hash variable ids, not levels, so equal digests mean equal
// functions even across managers ordered differently; one function under
// two orders may digest differently, which is safe: inequality merely
// forces a re-check.
//
// An observable's digest (combine_cone_digest) folds the sorted digests of
// its member functions with its kind and output position.  These are the
// keys the store's per-cone verdict summaries (store/serial.h) are built
// on: digest equality licenses replaying a cached verdict.
//
// A variable id is only meaningful between runs that bind roles to
// decision-diagram variables the same way, so varmap_digest() fingerprints
// the per-variable role sequence of a VarMap; summaries are invalidated
// when it changes (different --var-order, changed input declaration order
// under the declared strategy, changed share counts, ...).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/spec.h"
#include "circuit/unfold.h"
#include "dd/manager.h"

namespace sani::circuit {

/// A 32-byte SHA-256 digest of a function or an observable.
struct ConeDigest {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const ConeDigest& a, const ConeDigest& b) {
    return a.bytes == b.bytes;
  }
  friend bool operator!=(const ConeDigest& a, const ConeDigest& b) {
    return !(a == b);
  }
  friend bool operator<(const ConeDigest& a, const ConeDigest& b) {
    return a.bytes < b.bytes;
  }

  /// Lowercase hex spelling (for logs and tests).
  std::string hex() const;
};

/// Hash functor for unordered containers keyed by digest.
struct ConeDigestHash {
  std::size_t operator()(const ConeDigest& d) const {
    std::size_t h;
    static_assert(sizeof h <= sizeof d.bytes);
    __builtin_memcpy(&h, d.bytes.data(), sizeof h);
    return h;
  }
};

/// The digest of each root's function, parallel to `roots`: one Merkle
/// pass over the DAG the roots share, so a node reachable from several
/// roots is hashed once.
std::vector<ConeDigest> function_digests(const dd::Manager& manager,
                                         const std::vector<dd::NodeId>& roots);

/// Folds a set of member function digests into one observable-level digest.
/// `tag` distinguishes observable kinds, `group`/`share_index` pin an
/// output share's position (pass -1 for probes).  Members are hashed in
/// sorted order, matching the order-insensitive function-set identity the
/// observable dedupe uses.
ConeDigest combine_cone_digest(std::uint32_t tag, std::int32_t group,
                               std::int32_t share_index,
                               std::vector<ConeDigest> members);

/// Fingerprint of the role sequence a VarMap binds to dd variables: for
/// each variable in order, the role of its input wire.  Two runs with equal
/// varmap digests map every (secret group, share) / random / public role to
/// the same dd variable, so functions keyed by equal cone digests occupy
/// identical coordinates in both runs.
ConeDigest varmap_digest(const Gadget& gadget, const VarMap& vars);

}  // namespace sani::circuit
