#pragma once
// Store-backed warm-start verification.
//
// artifact_key() canonicalizes a job's Basis-determining inputs into a
// SHA-256 content hash:
//
//   * the netlist, routed through the canonical ILANG writer
//     (circuit::write_ilang_string) — so two textually different inputs
//     that parse to the same gadget share one artifact, and the hash is a
//     tested property of the writer's fixed point, not of incidental
//     whitespace;
//   * the probe model (include_inputs / dedupe / glitch_robust) — it
//     decides the observable universe;
//   * the security notion (per the service contract: one artifact per
//     (netlist, probe model, notion) job class);
//   * the variable order and sifting flag — they shape the frozen forest;
//   * the engine's BasisNeeds flags — they decide which representations
//     the artifact carries.
//
// The combination order `d`, job count, time limit and cache_bits are
// deliberately NOT keyed: the Basis is invariant under all of them, so one
// artifact serves every such run.
//
// verify_with_store() is the one code path behind both `sani --store DIR`
// and the sanid daemon: hit -> deserialize + verify_basis (no parse /
// unfold / basis_build / freeze at all); miss -> the ordinary cold
// pipeline, plus a best-effort save so the next identical job hits.

#include <memory>
#include <string>

#include "circuit/spec.h"
#include "store/store.h"
#include "verify/basis.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::store {

/// Engine -> BasisNeeds from the backend registry (kAuto resolves to
/// DIRECT first).  Shared by the artifact keying and the scan
/// planner/worker basis-coverage checks (store/scan.h).
verify::BasisNeeds needs_for_engine(verify::EngineKind engine);

/// Content hash (64-hex SHA-256) of the Basis-determining inputs, from the
/// canonical ILANG text.  Stable across processes, platforms and label
/// spellings.
std::string artifact_key(const std::string& canonical_ilang,
                         const verify::VerifyOptions& options);

/// Same, canonicalizing `gadget` through the ILANG writer first.
std::string artifact_key(const circuit::Gadget& gadget,
                         const verify::VerifyOptions& options);

/// Family key (64-hex SHA-256) for the incremental head pointer: the
/// (gadget family, probe model, notion) line a cone summary belongs to.
/// Deliberately netlist-content-free — the module *name* stands in for the
/// family, so an edited gadget resubmitted under the same name finds the
/// previous revision's summary, which is the entire point.  Everything the
/// summary's semantic guards check (notion, probe model, joint/union mode,
/// variable order, sifting) is keyed, so a head never points at a summary
/// the plan builder would have to reject for semantic reasons.
std::string summary_family_key(const circuit::Gadget& gadget,
                               const verify::VerifyOptions& options);

/// Object key of the cone summary for one (family, Basis artifact) pair.
/// Distinct from the artifact key (the two objects share the store's key
/// space), and per-revision: each netlist content writes its own summary
/// object and the family head repoints to the newest.
std::string summary_object_key(const std::string& family_key,
                               const std::string& artifact_key);

/// What the store contributed to one verification (for reports, the daemon
/// protocol and the CI warm-start assertions).
struct StoreOutcome {
  std::string key;
  bool hit = false;    // Basis deserialized from the store
  bool saved = false;  // cold run persisted its freshly built Basis
  bool summary_hit = false;    // a prior cone summary seeded the scan
  bool summary_saved = false;  // this run wrote a fresh cone summary
};

/// Warm-start verification: load the Basis for the job's content key, or
/// build and persist it, then run the engine over it.  Verdict and witness
/// are identical either way (the Basis is the complete verification input).
/// `cancel` optionally supplies a per-request cancellation token (see
/// verify::verify_basis); the basis build itself is not interruptible.
///
/// With options.incremental set, the scan additionally (a) looks up the
/// family head, loads the prior summary and replays verdicts for clean
/// combinations (verify/incremental.h) — verdict, witness and deterministic
/// report stay byte-identical to a cold run — and (b) collects a fresh
/// summary and repoints the family head at it, unless the run timed out
/// (a truncated bitmap is safe — unchecked ranks classify dirty — but it
/// must not displace a more complete head).  Both halves are best-effort:
/// no prior summary, a
/// quarantined one, or a plan rejection just mean a cold scan.
verify::VerifyResult verify_with_store(const circuit::Gadget& gadget,
                                       const verify::VerifyOptions& options,
                                       ArtifactStore& store,
                                       StoreOutcome* outcome = nullptr,
                                       sched::CancelToken* cancel = nullptr);

}  // namespace sani::store
