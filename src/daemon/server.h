#pragma once
// sanid — the long-lived verification service.
//
// One Server owns:
//
//   * a unix-domain listening socket speaking the NDJSON protocol of
//     daemon/protocol.h (one reader thread per connection; writes are
//     serialized per connection);
//   * a bounded, priority-ordered admission queue (sched::AdmissionQueue)
//     between connection handlers and a small set of executor threads — a
//     flooding client is rejected with an error frame instead of growing
//     daemon memory;
//   * an optional store::ArtifactStore: submissions warm-start their
//     prepared Basis from disk, cold misses populate it (the daemon's whole
//     point: amortize parse/unfold/basis_build/freeze across requests and
//     processes);
//   * in-flight dedupe: two identical requests (equal daemon::job_digest)
//     admit one job; every waiter receives the same result frame.
//
// Each admitted job runs with its own sched::CancelToken: the request's
// time limit arms its deadline, and a job whose every waiter disconnected
// before it started is skipped (or, once running, cancelled
// cooperatively).  Verification itself executes through the ordinary
// engine paths — per-request "jobs" still selects the shard executor's
// worker count inside the job.
//
// Lifecycle: start() binds and spawns threads; request_stop() (also
// triggered by a client's {"op":"shutdown"}) asks for termination;
// wait_for_stop() blocks a host main() until then; stop() tears everything
// down — queue closed, queued jobs failed explicitly, running jobs
// cancelled, connections shut down, socket unlinked.  sanid wires SIGTERM/
// SIGINT to request_stop(), so `kill $(pidof sanid)` is a clean shutdown.

#include <cstdint>
#include <memory>
#include <string>

namespace sani::daemon {

class Server {
 public:
  struct Options {
    std::string socket_path;       // required; unlinked on stop
    std::string store_dir;         // empty = run without an artifact store
    std::uint64_t store_max_bytes = 0;  // LRU cap for the store; 0 = none
    std::size_t queue_capacity = 64;    // admission queue bound; 0 = none
    int executors = 2;             // concurrent jobs (threads popping the
                                   // queue); per-job parallelism is the
                                   // request's own "jobs" field
  };

  explicit Server(Options options);
  ~Server();  // implies stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept + executor threads.  Throws
  /// std::runtime_error on socket errors (path too long, bind failure...).
  void start();

  /// Asks the server to stop; returns immediately.  Safe from any thread,
  /// including connection readers (the shutdown op) and signal-wait loops.
  void request_stop();

  /// Blocks until request_stop() is called.
  void wait_for_stop();

  /// Full teardown (idempotent).  Must not be called from a server-owned
  /// thread; hosts call it after wait_for_stop().
  void stop();

  /// The bound socket path (Options::socket_path).
  const std::string& socket_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sani::daemon
