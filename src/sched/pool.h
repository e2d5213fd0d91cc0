#pragma once
// Work-stealing thread pool for the verification runtime.
//
// Design: the thread that calls run() is worker 0; workers 1..n-1 are
// persistent threads (spawned once, parked between jobs), so a one-worker
// pool runs every task inline and owns no thread.  There is one task deque
// per worker.  run() deals task indices round-robin across
// the deques; each worker drains its own deque front-to-back — preserving
// ascending shard order, which is what lets the verification backend reuse
// convolution prefixes between adjacent shards — and steals from the *back*
// of a victim's deque when its own runs dry.  Back-stealing hands thieves
// the work farthest from the victim's current position, so prefix locality
// is disturbed as little as possible.
//
// Tasks are plain indices; all task state lives with the caller.  Per-worker
// state (the verification runtime's per-worker Drivers and their private
// dd::Managers) is keyed by the `worker` id passed to the task function: a
// slot is only ever touched by the worker that owns it.
//
// The pool does not cancel running tasks — cancellation is cooperative via
// sched::CancelToken, polled inside the task body.  An exception thrown by
// a task is captured (first one wins), the remaining tasks still run, and
// run() rethrows after the job drains.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace sani::sched {

struct PoolStats {
  std::uint64_t tasks_run = 0;     // tasks executed in the last job
  std::uint64_t tasks_stolen = 0;  // of those, run by a non-owner worker
};

class Pool {
 public:
  /// A pool of `threads` workers (clamped to >= 1): the caller of run()
  /// plus `threads - 1` spawned threads.
  explicit Pool(int threads);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int threads() const;

  /// fn(worker, task) with worker in [0, threads()) and each task index in
  /// [0, num_tasks) executed exactly once; worker 0 is the calling thread.
  /// Returns once every task ran; rethrows the first task exception.  Not
  /// reentrant: one job at a time.
  using TaskFn = std::function<void(int worker, std::size_t task)>;
  PoolStats run(std::size_t num_tasks, const TaskFn& fn);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int hardware_threads();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Resolves a requested worker count to the count actually used: 0 expands
/// to hardware_threads(), anything below 1 clamps to 1.  The single policy
/// site for the "--jobs 0" convention — callers record the return value.
int default_jobs(int requested);

}  // namespace sani::sched
