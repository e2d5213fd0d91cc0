#pragma once
// The shard executor: the one claim loop every verification runs through,
// in process (run_shards, every VerifyOptions::jobs value) and in a scan
// worker (store/scan.h).
//
// The combination space — the C(|Q|, d) per-combination checks that
// dominate the paper's cost model — is planned into contiguous
// lexicographic rank ranges (sched::plan_shards).  run_claim_loops runs
// `jobs` workers on a sched::run_workers team whose worker 0 is the calling
// thread, so `jobs == 1` spawns no thread and there is no serial path.
// Each worker builds its own Driver at its first claim and loops: claim a
// shard, run Driver::run_shard_partial (which records the shard's "scan"
// span), hand the PartialReport to the sink.  The callers differ only in their ShardFlow:
// run_shards claims from an atomic cursor over the plan and folds into one
// ReportAssembler; a scan worker claims ScanDir leases and checkpoints.  An
// exception in any shard stops every loop at its next claim and is
// rethrown once all workers have returned.  Every Driver reads the one
// immutable verify::Basis (the ADD engines thaw its frozen forest into a
// private manager), and the fold is order-independent (verify/partial.h),
// so neither the worker count nor the claim order shows in a report.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sched/shard.h"
#include "verify/basis.h"
#include "verify/driver.h"
#include "verify/partial.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {

struct IncrementalContext;

/// Where the shard executor's claims come from and where its partials go.
struct ShardFlow {
  /// claim(): nothing to claim now, but the plan has not drained.
  static constexpr std::size_t kBusy = static_cast<std::size_t>(-1);

  /// The next shard's index for the calling worker; kBusy to ask again
  /// once a sibling settles a shard (or after `busy_wait`); nullopt to end
  /// the worker's loop.
  std::function<std::optional<std::size_t>()> claim;
  std::chrono::duration<double> busy_wait{0.0};
  /// Driver::run_shard_partial's predicate: once the cancel token fires, a
  /// shard stops at the first combination for which this returns false.
  std::function<bool(const std::vector<int>&)> still_relevant;
  /// Takes a shard's partial (concurrently, from any worker).
  std::function<void(int worker, std::size_t shard,
                     const Driver::ShardOutcome& out, PartialReport&& part)>
      sink;
  /// The sink persists what it takes, so it never takes an incomplete
  /// partial (a shard stopped by a cancel): that claim is released and the
  /// worker's loop ends.
  bool persists = false;
  /// Gives back a claim whose partial reached no sink (optional when
  /// nothing persists).
  std::function<void(std::size_t shard)> release;
  /// Set by the first worker that throws.
  std::atomic<bool> failed{false};
};

/// Runs `jobs` claim loops over `flow` and the plan its claims index into,
/// building each worker's Driver with make_driver(worker) at its first
/// claim, and returns the Drivers (null for a worker that never claimed).
/// Rethrows the first exception after every worker returned; the throwing
/// shard's claim is released.
std::vector<std::unique_ptr<Driver>> run_claim_loops(
    int jobs, const std::vector<sched::Shard>& shards, ShardFlow& flow,
    const std::function<std::unique_ptr<Driver>(int worker)>& make_driver);

/// Runs the verification of `basis` on sched::default_jobs(options.jobs)
/// workers.  `options.engine` must be resolved (not kAuto).  `cancel`
/// optionally substitutes an external token for the run's own (the daemon's
/// per-request cancellation); the time-limit deadline is armed on whichever
/// token the run uses, and an external cancel() stops the run as timed out.
/// `ctx` threads the diff-aware incremental hooks (verify/incremental.h)
/// through: every worker's Driver replays against ctx->plan (immutable,
/// shared without locks), and the summary of what the assembler folded
/// goes to ctx->summary_out.  Replayed combinations are skipped inside
/// their shard, so the rank space and the merge order stay those of a cold
/// run.
///
/// The report is ReportAssembler::finalize()'s, plus the runtime fields
/// only the workers know: thaw seconds, dd.*, arena.* and the incremental
/// replay counters — and ParallelStats unless the caller asked for exactly
/// one worker (a `jobs == 1` report keeps parallel.jobs == 0, the serial
/// shape; `jobs == 0` records the resolved count, even when it is 1).
VerifyResult run_shards(std::shared_ptr<const Basis> basis,
                        const VerifyOptions& options,
                        sched::CancelToken* cancel,
                        const IncrementalContext* ctx);

}  // namespace sani::verify
