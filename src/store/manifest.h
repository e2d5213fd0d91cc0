#pragma once
// Durable scan manifests and the crash-safe shard claim/checkpoint protocol.
//
// A ScanManifest turns one verification job into an artifact: the canonical
// netlist (ILANG), the semantic options, the prepared-Basis object key, and
// the exact shard plan — everything a worker process needs to reproduce any
// shard's PartialReport from scratch.  The manifest is content-addressed
// (manifest_key over a versioned preimage), so the same (gadget, options)
// pair always lands in the same scan directory and re-planning is
// idempotent.
//
// On-disk layout of one scan, under <store>/scans/<manifest_key>/:
//
//   manifest          SANIMAN image (immutable after creation)
//   claims/NNNNNN.claim   one per in-flight shard:
//                         "index pid host epoch trace_id\n"
//   parts/NNNNNN.part     SANIPAR checkpoint (complete PartialReport)
//   reclaims.log          one line per lease steal (operator forensics)
//   telemetry/            per-worker snapshots + traces (store/telemetry.h)
//
// Claim protocol (lock-free; any number of processes on a shared dir):
//
//   1. claim: open(claims/i, O_CREAT|O_EXCL) — exactly one creator wins.
//   2. run the shard to completion (or its local first failure).
//   3. checkpoint: write parts/i to a temp name, rename() into place —
//      readers see either nothing or a complete, hash-framed file.
//   4. release: unlink the claim.
//
// A worker that dies between 1 and 3 leaves a claim whose mtime stops
// advancing; once it is older than the lease, any other worker *steals* it
// by rename()ing its own fresh claim file over the stale one (rename is
// atomic, so concurrent stealers collapse to a harmless double execution:
// PartialReports are pure functions of (basis, options, shard), and the
// checkpoint rename is last-writer-wins with byte-identical content).
// Nothing in the protocol ever blocks on another process.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/shard.h"
#include "verify/basis.h"
#include "verify/partial.h"
#include "verify/types.h"

namespace sani::store {

/// Scan-manifest (SANIMAN) and shard-checkpoint (SANIPAR) format versions;
/// same framing discipline as SANIBAS/SANISUM (store/serial.h).  Bump on
/// any layout change — old files are rejected, never migrated (a stale
/// manifest simply plans a fresh scan under a new key).
/// v2 adds the fleet trace id (minted at plan time, excluded from the
/// content key) so every worker process stitches into one trace.  v3 drops
/// the prefix-memo capacity from the options block.
inline constexpr std::uint32_t kManifestFormatVersion = 3;
inline constexpr char kManifestMagic[8] = {'S', 'A', 'N', 'I',
                                           'M', 'A', 'N', '\x01'};
/// SANIPAR v2 compacts the dependency section: one dictionary of distinct
/// V-mask vectors plus a varint (rank-delta, dictionary-index) pair per
/// entry, instead of v1's fixed 8 + 16*num_secrets bytes each.  v3 prefixes
/// the payload with the scan's trace id so a checkpoint can always be
/// attributed to the job that produced it.  v4 drops the prefix-memo
/// hit/miss counters.
inline constexpr std::uint32_t kPartialFormatVersion = 4;
inline constexpr char kPartialMagic[8] = {'S', 'A', 'N', 'I',
                                          'P', 'A', 'R', '\x01'};

/// The complete, self-contained description of one sharded scan.
struct ScanManifest {
  std::string label;            // gadget name / file label, for reports
  std::string canonical_ilang;  // rebuild recipe if the Basis was evicted
  std::string basis_key;        // SANIBAS object key in the sibling store
  /// Canonical semantic options; the engine is always resolved (never
  /// kAuto) so every report renders the same engine label no matter which
  /// engine a worker actually ran.
  verify::VerifyOptions options;
  verify::BasisNeeds needs;     // what the planned Basis artifact carries
  std::uint64_t num_observables = 0;
  std::uint32_t num_secrets = 0;
  std::uint64_t base_coefficients = 0;
  double build_seconds = 0.0;
  std::uint64_t frozen_nodes = 0;
  std::uint64_t frozen_bytes = 0;
  /// Fleet trace/job id: minted once at plan time (a prefix of the
  /// manifest key), echoed in claim files, checkpoints, worker traces and
  /// daemon frames so one job's telemetry stitches across processes.
  /// Deliberately NOT part of the manifest_key preimage — it is derived
  /// from the key, not a semantic input.
  std::string trace_id;
  /// The shard plan, fixed at plan time: workers claim these by index.
  std::vector<sched::Shard> shards;

  std::uint64_t total_combinations() const {
    std::uint64_t total = 0;
    for (const sched::Shard& s : shards) total += s.size();
    return total;
  }
};

/// Content address of a manifest: a SHA-256 over a versioned preimage of
/// the semantic inputs (basis key, notion/order/engine/probe model, shard
/// sizing).  Re-planning the same job finds the same directory — and with
/// it, every checkpoint a previous run left behind.
std::string manifest_key(const ScanManifest& manifest);

std::string serialize_manifest(const ScanManifest& manifest);
ScanManifest deserialize_manifest(const std::string& file_image);

/// SANIPAR image of a complete per-shard checkpoint.  Dependency rows are
/// not stored (RowContext is recomputed from the basis on merge); the
/// V-mask width is the manifest's num_secrets.  `trace_id` is the scan's
/// fleet id; deserialize refuses a checkpoint whose stored id differs from
/// a non-empty `expected_trace_id` (cross-job contamination of a scan dir).
std::string serialize_partial(const verify::PartialReport& part,
                              std::uint32_t num_secrets,
                              const std::string& trace_id = "");
verify::PartialReport deserialize_partial(
    const std::string& file_image, std::uint32_t num_secrets,
    const std::string& expected_trace_id = "");

/// One scan directory: the manifest plus the live claim/checkpoint state.
class ScanDir {
 public:
  /// Creates the directory skeleton and writes the manifest if absent;
  /// reopening an existing directory validates that the stored manifest
  /// hashes to the same key (planning is idempotent).  Throws
  /// std::runtime_error on mismatch or I/O failure.
  static ScanDir create(const std::string& dir, const ScanManifest& manifest);

  /// Opens an existing scan directory (throws if no valid manifest).
  static ScanDir open(const std::string& dir);

  const ScanManifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }
  std::size_t shard_count() const { return manifest_.shards.size(); }

  bool is_done(std::size_t index) const;
  /// Every shard has a checkpoint — the scan is finalizable.
  bool drained() const;

  struct Claim {
    std::size_t index = 0;
    bool reclaimed = false;  // stolen from a stale lease
  };

  /// Claims a shard that has neither a checkpoint nor a fresh claim.
  /// First pass: unclaimed shards (O_CREAT|O_EXCL), scanned from a rotating
  /// cursor that starts where the last successful claim left off — a
  /// draining worker probes O(1) shards per claim instead of re-statting
  /// the whole directory, while the full wrap-around keeps every shard
  /// reachable (a shard released behind the cursor is still found).
  /// Second pass: claims whose file mtime is older than `lease_seconds`
  /// are stolen.  std::nullopt when every remaining shard is done or
  /// freshly claimed by someone else (callers poll; the lease bounds the
  /// wait).
  std::optional<Claim> claim_next(double lease_seconds);

  /// Abandons a claim this process holds (shard not checkpointed).
  void release_claim(std::size_t index);

  /// Atomically publishes the checkpoint for shard `index` (tmp + rename)
  /// and releases its claim.  Returns false on I/O failure.
  bool write_checkpoint(std::size_t index, const verify::PartialReport& part);

  std::optional<verify::PartialReport> read_checkpoint(
      std::size_t index) const;

  /// One in-flight claim with its lease age — surfaced by `--status` so
  /// stale or stolen-candidate leases are visible before the steal.
  struct ClaimAge {
    std::size_t index = 0;
    double age_seconds = 0.0;
  };

  struct Status {
    std::uint64_t planned = 0;  // shards with neither claim nor checkpoint
    std::uint64_t claimed = 0;  // in-flight (claim file, no checkpoint)
    std::uint64_t done = 0;
    std::uint64_t reclaims = 0;          // lease steals over the scan's life
    std::uint64_t checkpoint_bytes = 0;  // on-disk footprint of parts/
    std::uint64_t combinations_done = 0;  // sum over checkpoints
    std::vector<ClaimAge> claim_ages;    // one per in-flight claim
    double oldest_claim_age = 0.0;       // max over claim_ages (0 if none)
  };

  /// Scans the directory (reads every checkpoint header for the
  /// combination total — checkpoints are small).
  Status status() const;

 private:
  ScanDir(std::string dir, ScanManifest manifest);

  std::string claim_path(std::size_t index) const;
  std::string part_path(std::size_t index) const;

  std::string dir_;
  ScanManifest manifest_;
  /// claim_next's pass-1 start index; shared_ptr keeps ScanDir copyable
  /// while claiming threads share one cursor.  Purely an access-pattern
  /// hint — correctness never depends on its value.
  std::shared_ptr<std::atomic<std::size_t>> claim_cursor_ =
      std::make_shared<std::atomic<std::size_t>>(0);
};

}  // namespace sani::store
