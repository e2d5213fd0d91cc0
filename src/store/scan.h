#pragma once
// Manifest-driven sharded scans: plan / run / finalize.
//
// A scan splits one verification job into the manifest's shard plan
// (store/manifest.h) and lets any number of worker processes — started
// together, sequentially, or after a crash — claim shards, run them to
// complete PartialReports and checkpoint the results.  The three entry
// points mirror the `sani scan` CLI:
//
//   plan_scan      — prepare (or load) the Basis, resolve the engine
//                    (auto -> DIRECT), fix the shard plan, write the
//                    manifest.
//                    Idempotent: re-planning the same job reopens the same
//                    directory, checkpoints intact.
//   run_scan_worker — claim-and-run until the manifest drains (or a shard
//                    quota is hit).  Safe to run N of these concurrently
//                    on a shared directory; a SIGKILL at any point loses at
//                    most the in-flight shards, whose stale leases the next
//                    worker reclaims.
//   finalize_scan  — fold every checkpoint through verify::ReportAssembler
//                    into the canonical serial-shaped report.  Byte-
//                    deterministic over the shard plan: any mixture of
//                    processes, worker counts and engines that drained the
//                    same manifest finalizes identically.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/spec.h"
#include "store/manifest.h"
#include "store/store.h"
#include "verify/types.h"

namespace sani::obs {
class Progress;
}

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {
class ReportAssembler;
}

namespace sani::store {

/// Canonical location of the scan directory for one manifest key, relative
/// to an artifact-store root: <store>/scans/<key>.
std::string scan_dir_for(const std::string& store_dir, const std::string& key);

/// Every scan directory under <store>/scans (sorted by key; empty when the
/// store has no scans).  The daemon's STATS op and `sani stats` list these.
std::vector<std::string> list_scan_dirs(const std::string& store_dir);

struct PlanOutcome {
  std::string key;       // manifest key (names the scan directory)
  std::string dir;       // the scan directory
  bool resumed = false;  // directory already existed (prior checkpoints too)
  bool basis_hit = false;
  bool basis_saved = false;
  /// The planned Basis, still in memory.  A one-shot plan+drain+finalize
  /// caller passes this to run_scan_worker / finalize_scan so neither has
  /// to re-load (deserialize + hash-verify) the artifact it just built.
  std::shared_ptr<const verify::Basis> basis;
};

/// Plans a sharded scan for (gadget, options): loads or builds+saves the
/// Basis, resolves kAuto to a concrete engine (the manifest never stores an
/// unresolved engine, so every worker and the finalizer render the same
/// report), plans shards for `workers_hint` workers and creates the scan
/// directory.  `label` is the display name reports render under (the CLI
/// passes its --gadget/--file spelling so a finalized report byte-matches
/// `sani verify` on the same invocation).  Throws std::runtime_error on
/// I/O failure.
ScanDir plan_scan(const circuit::Gadget& gadget, const std::string& label,
                  const verify::VerifyOptions& options, ArtifactStore& store,
                  int workers_hint, PlanOutcome* outcome = nullptr);

struct WorkerOptions {
  /// Engine this worker runs its shards with; kAuto means the manifest's
  /// canonical engine.  PartialReports are engine-invariant, so mixing
  /// engines across workers (or across a crash/resume boundary) cannot
  /// change the finalized report.
  verify::EngineKind engine = verify::EngineKind::kAuto;
  /// Claiming threads inside this process (each owns a private Driver).
  int jobs = 1;
  /// Claims older than this are considered abandoned and stolen; 0 steals
  /// any existing claim immediately (single-owner resume).
  double lease_seconds = 300.0;
  /// Sleep between claiming a shard and running it — widens the window in
  /// which a kill leaves a reclaimable lease (crash-injection tests).
  double throttle_seconds = 0.0;
  /// Stop after this many checkpoints written by this call; 0 = run until
  /// the manifest drains.
  std::uint64_t max_shards = 0;
  /// Optional live meter; previously-checkpointed combinations are credited
  /// up front, so a resumed scan's progress starts where the last run died.
  obs::Progress* progress = nullptr;
  /// Seconds between per-worker telemetry snapshot writes into
  /// <scan-dir>/telemetry/ (store/telemetry.h) — the data `sani top` and
  /// `--status` aggregate.  0 disables the sampler thread.  Snapshots are
  /// pure observability: they never influence a checkpoint or report.
  double telemetry_interval_seconds = 2.0;
  /// Optional cooperative stop (the daemon's per-job token).  Checked
  /// between shards and polled inside them; a shard interrupted mid-run is
  /// NOT checkpointed (checkpoints hold only complete partials) — its claim
  /// is released so the next worker reruns it from the shard boundary.
  sched::CancelToken* cancel = nullptr;
  /// Optional pre-resolved Basis (e.g. PlanOutcome::basis from the plan
  /// this process just made).  Used when it physically carries this
  /// worker's engine material; otherwise the store/ILANG fallback runs.
  std::shared_ptr<const verify::Basis> basis;
  /// Optional in-process fold target: every checkpoint this call writes is
  /// also add()ed to the assembler (first write per shard only, under an
  /// internal mutex).  A one-shot plan+drain+finalize caller passes one so
  /// finalize_scan can render from memory instead of re-reading every
  /// checkpoint — the disk round-trip then costs only what crash-safe
  /// resume actually uses.  Construct it with the planned Basis and the
  /// manifest's canonical options.
  verify::ReportAssembler* assembler = nullptr;
};

struct WorkerOutcome {
  std::uint64_t shards_done = 0;       // checkpoints this call wrote
  std::uint64_t shards_reclaimed = 0;  // of those, claims stolen from a
                                       // stale lease
  std::uint64_t combinations = 0;      // combinations this call checked
  bool drained = false;                // every shard checkpointed on return
};

/// Claims and runs shards until the manifest drains or `max_shards` is hit.
/// `store` (optional) warm-starts the Basis; without it — or when the
/// stored artifact lacks this worker's engine material — the Basis is
/// rebuilt from the manifest's canonical ILANG.
WorkerOutcome run_scan_worker(ScanDir& scan, ArtifactStore* store,
                              const WorkerOptions& options);

/// Folds every checkpoint into the canonical merged report (serial report
/// shape, manifest options).  `basis` (optional) skips the artifact
/// re-load when the caller still holds the planned Basis in memory.
/// `assembled` (optional) is the WorkerOptions::assembler the caller's
/// worker just drained the scan with: when it holds every shard, finalize
/// renders from memory and never re-reads a checkpoint (the fold is
/// associative, so the result is byte-identical to the disk path); when it
/// holds fewer — another process wrote some shards — the disk path runs.
/// Throws std::runtime_error when the manifest has undrained shards.
verify::VerifyResult finalize_scan(
    ScanDir& scan, ArtifactStore* store,
    std::shared_ptr<const verify::Basis> basis = nullptr,
    verify::ReportAssembler* assembled = nullptr);

}  // namespace sani::store
