#pragma once
// Structured tracing: Chrome trace-event JSON for chrome://tracing and
// Perfetto (https://ui.perfetto.dev — "Open trace file").
//
// Design goals, in order:
//
//  1. Near-zero cost when disabled.  Every hook is an inline relaxed-atomic
//     flag check; no allocation, no clock read, no branch beyond the check.
//     The flag is process-global, so the hooks can sit inside the DD
//     manager's GC, the backend convolution loops and the scheduler without
//     measurable overhead on untraced runs (CI gates this).
//  2. Lock-free recording on the hot path.  Each thread owns a fixed-size
//     ring buffer of plain-old-data events; recording is an index bump and
//     a struct store.  The only locks are on the cold paths: first event of
//     a new thread (registry insert) and the final flush.
//  3. Bounded memory.  A ring holds kRingCapacity events; once it wraps,
//     the oldest events are overwritten (and counted as dropped), so a
//     pathological run can never trace itself out of memory.
//
// Span names are static strings drawn from the documented phase taxonomy
// (DESIGN.md Sec. 10): parse, unfold, basis_build, freeze, thaw, scan,
// convolution, add_check, union, gc, sift, and the fleet phases added with
// checkpointable scans and the daemon: claim, checkpoint_write,
// checkpoint_load, finalize, admission_wait, and the artifact store's
// store_open.  A shard (in process and in a scan worker alike) records one
// "scan" span and, inside it, one aggregate "convolution" and one
// "add_check" span: the phase's total over the shard, laid end to end from
// the shard's start, with args.count the combinations summed — no span is
// recorded per combination.  Counter events
// (ph:"C") sample the DD ManagerStats (live nodes, arena bytes, cache hit
// rate) and the enumeration progress.
//
// Thread ids in the emitted trace are small dense integers assigned on each
// thread's first event; sched::run_workers labels its workers "worker N"
// via thread-name metadata so per-worker rows are recognizable in the
// viewer.
//
// Multi-process scans: every worker emits its real pid, an optional
// process_name metadata row (set_process_label) and the scan's trace id in
// the trace's otherData, so `sani trace-stitch` can merge per-worker files
// into one Perfetto view with one process row per worker.

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/clock.h"

namespace sani::obs {

/// Process-global trace collector.  All members are safe to call from any
/// thread; start()/stop()/write_json() are meant for the top of main().
class Tracer {
 public:
  static Tracer& instance();

  /// Begins capturing: clears previously captured events, re-bases the
  /// timestamp origin and raises the enabled flag.
  void start();

  /// Lowers the enabled flag; captured events are retained for write_json.
  void stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a completed span (ph:"X").  `start_ns` from Clock::now_ns().
  /// An aggregate span (the sum of `count` intervals) passes the count,
  /// emitted as args.count.
  void complete(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                std::uint64_t count = 0);

  /// Records a counter sample (ph:"C"); Perfetto plots one series per name.
  void counter(const char* name, double value);

  /// Records an instant event (ph:"i"), e.g. a cancellation signal.
  void instant(const char* name);

  /// Names the calling thread "<prefix> <index>" in the trace (metadata,
  /// emitted once per thread per capture).  No-op when disabled.
  void label_thread(const char* prefix, int index);

  /// Names this process in the trace (process_name metadata row).  Unlike
  /// label_thread this is not gated on enabled(): callers set it once at
  /// startup, possibly before start().
  void set_process_label(const std::string& label);

  /// Attaches the fleet-wide trace/job id (minted at plan_scan or daemon
  /// submit); emitted as otherData.trace_id so trace-stitch can check that
  /// every per-worker file belongs to the same job.
  void set_trace_id(const std::string& id);
  std::string trace_id() const;

  /// Serializes everything captured since start() as Chrome trace JSON.
  /// Also callable after stop().  Returns the JSON object text.
  std::string to_json();

  /// to_json() to a file; false (with errno intact) when the file cannot
  /// be written.
  bool write_json(const std::string& path);

  /// Events overwritten because a thread's ring wrapped (0 in sane runs).
  std::uint64_t dropped() const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;
  struct Impl;

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> t0_ns_{0};
};

/// RAII span: captures Clock::now_ns() at construction and records a
/// complete event at destruction.  When tracing is disabled the constructor
/// is one relaxed load and the destructor one branch.
class Span {
 public:
  explicit Span(const char* name)
      : name_(Tracer::instance().enabled() ? name : nullptr),
        start_ns_(name_ ? Clock::now_ns() : 0) {}

  ~Span() {
    if (name_)
      Tracer::instance().complete(name_, start_ns_,
                                  Clock::now_ns() - start_ns_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_;
};

}  // namespace sani::obs
