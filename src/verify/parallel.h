#pragma once
// The in-process shard executor: the one path every verification takes,
// whatever VerifyOptions::jobs says.
//
// The combination space is embarrassingly parallel — the paper's cost model
// is dominated by the C(|Q|, d) per-combination checks.  The executor plans
// it into contiguous lexicographic rank ranges (sched::plan_shards), runs
// each shard through Driver::run_shard_partial on a work-stealing pool
// (sched::Pool) and folds every PartialReport into one ReportAssembler,
// whose finalize() renders the result.  Worker 0 is the calling thread, so
// `jobs == 1` is simply a one-worker pool: no thread is spawned and there
// is no separate serial path.
//
// Every worker reads the one immutable verify::Basis.  The scan engines
// (LIL, MAP, DIRECT) need nothing else.  The ADD engines (MAPI, FUJITA)
// verify on decision diagrams, and the dd::Manager's GC/reordering safe
// points are single-threaded — so each worker's Driver owns a private
// manager and *thaws* the Basis' frozen forest into it on startup
// (dd::Manager::import_forest, O(nodes)).
//
// Failures merge deterministically: the reported counterexample is the
// smallest failing combination in the search order, and an insecure
// report's counters are that order's canonical ones (ReportAssembler::
// finalize), independent of thread count and completion order.  A shared
// sched::CancelToken propagates the first counterexample and the
// --time-limit deadline cooperatively.

#include <memory>

#include "verify/basis.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {

struct IncrementalContext;

/// Runs the verification of `basis` on sched::default_jobs(options.jobs)
/// workers.  `options.engine` must be resolved (not kAuto).  `cancel`
/// optionally substitutes an external token for the run's own (the daemon's
/// per-request cancellation); the time-limit deadline is armed on whichever
/// token the run uses, and an external cancel() stops the run as timed out.
/// `ctx` threads the diff-aware incremental hooks (verify/incremental.h)
/// through: every worker's Driver replays against ctx->plan (immutable,
/// shared without locks) and records outcomes into a private collector,
/// merged into ctx->collector afterwards; the assembler's dependency store
/// is merged into ctx->deps_out.  Clean
/// combinations are skipped inside their shard, so the rank space and the
/// merge order stay those of a cold run.
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
