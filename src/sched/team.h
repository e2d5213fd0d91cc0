#pragma once
// The thread team the shard executor runs on.
//
// run_workers(n, fn) calls fn(worker) once for every worker id in [0, n):
// the calling thread is worker 0 and only workers 1..n-1 are spawned, so a
// one-worker team owns no thread.  There is no task queue — each worker
// runs its own claim loop (verify/parallel.h) — and a team lives for one
// call.  Every worker labels its thread "worker N" in the trace.

#include <functional>

namespace sani::sched {

/// Runs fn(worker) for worker = 0..n-1 (n clamped to >= 1), worker 0 on the
/// calling thread, and returns once all have returned.  Rethrows the first
/// exception any of them threw; stopping the others early is fn's business.
void run_workers(int n, const std::function<void(int worker)>& fn);

/// std::thread::hardware_concurrency with a sane floor of 1.
int hardware_threads();

/// Resolves a requested worker count to the count actually used: 0 expands
/// to hardware_threads(), anything below 1 clamps to 1.  The single policy
/// site for the "--jobs 0" convention — callers record the return value.
int default_jobs(int requested);

}  // namespace sani::sched
