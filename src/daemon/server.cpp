#include "daemon/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "daemon/protocol.h"
#include "gadgets/registry.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "sched/cancel.h"
#include "sched/queue.h"
#include "store/cached_verify.h"
#include "store/scan.h"
#include "store/store.h"
#include "store/telemetry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/partial.h"
#include "verify/report.h"

namespace sani::daemon {

namespace {

/// One client connection.  Reads happen on the connection's own thread;
/// writes (result fan-out crosses threads) serialize on `write_mu`.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  /// Sends one frame line.  Best-effort: a vanished client is detected by
  /// its reader thread, not here (MSG_NOSIGNAL keeps a dead peer from
  /// raising SIGPIPE).
  void send_line(const std::string& frame) {
    std::lock_guard<std::mutex> lock(write_mu);
    std::string line = frame;
    line.push_back('\n');
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  void shutdown_both() { ::shutdown(fd, SHUT_RDWR); }

  const int fd;
  std::mutex write_mu;
};

using ConnectionPtr = std::shared_ptr<Connection>;

struct Waiter {
  ConnectionPtr conn;
  std::uint64_t id = 0;
};

/// One admitted verification job; shared by every deduped waiter.
struct Job {
  VerifyRequest request;
  circuit::Gadget gadget;
  std::string label;
  std::string key;       // artifact key (store address)
  std::string digest;    // full job identity (dedupe key)
  std::string trace_id;  // fleet trace id (digest prefix), echoed to clients

  sched::CancelToken cancel;
  std::mutex mu;
  std::vector<Waiter> waiters;  // guarded by mu
  bool started = false;         // guarded by mu

  /// Snapshot under the lock; fan-out happens outside it.
  std::vector<Waiter> waiters_snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return waiters;
  }
};

using JobPtr = std::shared_ptr<Job>;

}  // namespace

struct Server::Impl {
  explicit Impl(Options opt)
      : options(std::move(opt)), queue(options.queue_capacity) {}

  Options options;
  int listen_fd = -1;
  std::unique_ptr<store::ArtifactStore> store;

  sched::AdmissionQueue<JobPtr> queue;
  std::mutex jobs_mu;
  std::unordered_map<std::string, JobPtr> inflight;  // digest -> job

  std::thread accept_thread;
  std::vector<std::thread> executors;
  // Reader threads are detached (a long-lived daemon would otherwise pile
  // up joinable handles); stop() shuts the sockets down and waits on
  // active_readers instead of join().
  std::mutex conns_mu;
  std::condition_variable conns_cv;
  std::vector<std::weak_ptr<Connection>> conns;
  std::size_t active_readers = 0;  // guarded by conns_mu

  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_requested = false;
  std::atomic<bool> running{false};
  bool stopped = false;  // guarded by stop_mu (stop() is idempotent)

  std::atomic<std::uint64_t> next_request_id{1};

  // ---- request handling ----------------------------------------------

  void handle_line(const ConnectionPtr& conn, const std::string& line);
  void handle_verify(const ConnectionPtr& conn, VerifyRequest request);
  void handle_stats(const ConnectionPtr& conn);
  void executor_loop();
  void run_job(const JobPtr& job);
  void accept_loop();
  void reader_loop(ConnectionPtr conn);
  void detach_connection(const ConnectionPtr& conn);
};

namespace {

obs::Counter& daemon_counter(const char* name) {
  return obs::Metrics::instance().counter(name);
}

/// Mirrors the sani CLI's default_order: an explicit order wins, a registry
/// gadget falls back to its design order, anything else to 1.
int resolve_order(const VerifyRequest& request) {
  if (request.options.order >= 1) return request.options.order;
  if (!request.gadget_name.empty()) {
    try {
      return gadgets::security_level(request.gadget_name);
    } catch (const std::invalid_argument&) {
    }
  }
  return 1;
}

/// Renders exactly what `sani verify` prints on stdout for this request —
/// the contract that makes sanic a drop-in for sani in scripts and CI
/// byte-diffs.
std::string render_report(const VerifyRequest& request,
                          const circuit::Gadget& gadget,
                          const std::string& label,
                          const verify::VerifyResult& result,
                          double seconds) {
  std::ostringstream os;
  if (request.json_format) {
    os << verify::json_report(label, request.options, result, seconds)
       << "\n";
    return os.str();
  }
  os << verify::summarize(label, request.options, result, seconds) << "\n";
  if (!result.secure && result.counterexample) {
    // The detailed text report decodes the witness through the variable
    // map; rebuild it the same way the CLI does.
    circuit::Unfolded u = circuit::unfold(gadget, request.options.cache_bits,
                                          request.options.var_order);
    os << verify::detailed_report(gadget, u.vars, request.options, result);
  }
  return os.str();
}

int exit_code_of(const verify::VerifyResult& result) {
  return result.timed_out ? 2 : (result.secure ? 0 : 1);
}

}  // namespace

void Server::Impl::handle_line(const ConnectionPtr& conn,
                               const std::string& line) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    daemon_counter("daemon.errors").add();
    conn->send_line(error_frame(0, e.what()));
    return;
  }
  switch (req.op) {
    case Op::kPing:
      conn->send_line(pong_frame());
      return;
    case Op::kStats:
      handle_stats(conn);
      return;
    case Op::kMetrics:
      // Prometheus scrape: refresh the process gauges, then ship the whole
      // registry in exposition format.  The bridge on the other end relays
      // `body` verbatim with the given content type.
      obs::sample_process_gauges();
      obs::Metrics::instance().gauge("daemon.queue_depth")
          .set(static_cast<double>(queue.size()));
      conn->send_line(
          metrics_frame(obs::Metrics::instance().dump_prometheus()));
      return;
    case Op::kShutdown:
      conn->send_line(shutdown_frame());
      // The reader thread cannot join itself; the host main() blocked in
      // wait_for_stop() performs the actual teardown.
      {
        std::lock_guard<std::mutex> lock(stop_mu);
        stop_requested = true;
      }
      stop_cv.notify_all();
      return;
    case Op::kVerify:
      handle_verify(conn, std::move(req.verify));
      return;
  }
}

void Server::Impl::handle_verify(const ConnectionPtr& conn,
                                 VerifyRequest request) {
  const std::uint64_t id = next_request_id.fetch_add(1);
  JobPtr job;
  try {
    circuit::Gadget gadget = request.gadget_name.empty()
                                 ? circuit::parse_ilang_string(request.ilang_text)
                                 : gadgets::by_name(request.gadget_name);
    request.options.order = resolve_order(request);
    // Incremental policy: a store-backed daemon turns it on unless the
    // request says otherwise — repeat traffic over slowly-edited gadgets is
    // the daemon's workload, and the prior-summary lookup is automatic
    // (family head in the store).  Without a store it is clamped off; the
    // resolved value enters the job digest, so requests differing on it
    // never dedupe into one another.
    if (!request.incremental_set)
      request.options.incremental = store != nullptr;
    if (!store) request.options.incremental = false;
    if (request.scan) {
      if (!store)
        throw std::invalid_argument(
            "'scan' requires a store-backed daemon (checkpoints live under "
            "the store)");
      // The manifest scan has its own warm-start/merge path; the
      // incremental summary machinery does not apply shard-wise.
      request.options.incremental = false;
    }
    const std::string label = request.gadget_name.empty()
                                  ? gadget.netlist.name()
                                  : request.gadget_name;
    const std::string key = store::artifact_key(gadget, request.options);
    job = std::make_shared<Job>();
    job->request = std::move(request);
    job->gadget = std::move(gadget);
    job->label = label;
    job->key = key;
    job->digest = job_digest(job->request, key);
    job->trace_id = job->digest.substr(0, 16);
  } catch (const std::exception& e) {
    daemon_counter("daemon.errors").add();
    conn->send_line(error_frame(id, e.what()));
    return;
  }

  // Dedupe against identical in-flight work: attach to the existing job if
  // one exists, admit a fresh one otherwise — all under jobs_mu so a
  // completing executor (which erases the digest and fans results out
  // under the same lock) can neither lose this waiter nor deliver its
  // result frame before the accepted frame below goes out.
  bool deduped = false;
  {
    std::lock_guard<std::mutex> jobs_lock(jobs_mu);
    auto it = inflight.find(job->digest);
    if (it != inflight.end()) {
      std::lock_guard<std::mutex> job_lock(it->second->mu);
      it->second->waiters.push_back(Waiter{conn, id});
      job = it->second;
      deduped = true;
    } else {
      job->waiters.push_back(Waiter{conn, id});
      if (!queue.try_push(job, job->request.priority)) {
        daemon_counter("daemon.rejected").add();
        conn->send_line(error_frame(
            id, queue.closed() ? "daemon is shutting down"
                               : "admission queue full"));
        return;
      }
      inflight.emplace(job->digest, job);
    }
    daemon_counter(deduped ? "daemon.deduped" : "daemon.accepted").add();
    obs::Metrics::instance().gauge("daemon.queue_depth")
        .set(static_cast<double>(queue.size()));
    conn->send_line(
        accepted_frame(id, job->key, job->trace_id, deduped, queue.size()));
  }
  obs::Journal::instance().info("daemon", deduped ? "deduped" : "accepted",
                                {{"id", id},
                                 {"label", job->label},
                                 {"trace_id", job->trace_id},
                                 {"scan", job->request.scan}});
}

void Server::Impl::handle_stats(const ConnectionPtr& conn) {
  obs::sample_process_gauges();
  auto& m = obs::Metrics::instance();
  m.gauge("daemon.queue_depth").set(static_cast<double>(queue.size()));
  std::size_t inflight_count = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu);
    inflight_count = inflight.size();
  }
  m.gauge("daemon.inflight").set(static_cast<double>(inflight_count));
  std::ostringstream os;
  os << "{\"frame\":\"stats\",\"queue_depth\":" << queue.size()
     << ",\"queue_capacity\":" << queue.capacity()
     << ",\"inflight\":" << inflight_count
     << ",\"store\":" << (store ? "true" : "false");
  if (store) {
    // Manifest state of every scan directory under the store: the
    // operator's view of long jobs in flight (and of resumable leftovers
    // from a previous daemon life).
    os << ",\"scans\":[";
    bool first = true;
    for (const std::string& dir : store::list_scan_dirs(store->dir())) {
      try {
        const store::ScanDir scan = store::ScanDir::open(dir);
        const store::ScanDir::Status st = scan.status();
        if (!first) os << ",";
        first = false;
        os << "{\"label\":\"" << obs::json_escape(scan.manifest().label)
           << "\",\"shards_done\":" << st.done
           << ",\"shards_total\":" << scan.shard_count()
           << ",\"claimed\":" << st.claimed
           << ",\"oldest_claim_age\":" << st.oldest_claim_age
           << ",\"reclaims\":" << st.reclaims
           << ",\"checkpoint_bytes\":" << st.checkpoint_bytes
           << ",\"combinations_done\":" << st.combinations_done
           << ",\"workers\":"
           << store::aggregate_fleet(store::read_worker_snapshots(dir),
                                     0)
                  .live_workers
           << "}";
      } catch (const std::exception&) {
        // An unreadable scan dir (mid-create, version skew) is skipped —
        // stats must never fail over forensic data.
      }
    }
    os << "]";
  }
  os << ",\"metrics\":" << m.to_json() << "}";
  conn->send_line(os.str());
}

void Server::Impl::executor_loop() {
  while (true) {
    std::optional<JobPtr> job;
    {
      // Executor idle time waiting on admission — visible in traces so
      // queueing delay and compute are separable per job.
      obs::Span wait("admission_wait");
      job = queue.pop();
    }
    if (!job) return;  // queue closed: shutdown
    run_job(*job);
  }
}

void Server::Impl::run_job(const JobPtr& job) {
  bool abandoned = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->started = true;
    abandoned = job->waiters.empty();
  }
  if (abandoned) {
    // Every waiter hung up before the job started: nobody to answer.
    // Retract the digest first (jobs_mu strictly before job->mu — the
    // locking order everywhere), then re-check: a request that attached in
    // the gap still deserves its result, so run after all in that case.
    std::lock_guard<std::mutex> jobs_lock(jobs_mu);
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->waiters.empty()) {
      inflight.erase(job->digest);
      daemon_counter("daemon.abandoned").add();
      return;
    }
  }
  for (const Waiter& w : job->waiters_snapshot())
    w.conn->send_line(progress_frame(w.id, "running"));

  try {
    Stopwatch watch;
    verify::VerifyResult result;
    store::StoreOutcome outcome;
    if (job->request.scan && store) {
      // Resumable long-job mode: plan (idempotent — a restarted daemon
      // reopens the same scan directory, prior checkpoints intact), drain,
      // finalize.  A cancel mid-scan (waiters gone / daemon stopping)
      // leaves every completed shard checkpointed; the same request later
      // resumes from them instead of starting over.
      const int scan_jobs =
          job->request.options.jobs > 0
              ? job->request.options.jobs
              : static_cast<int>(std::thread::hardware_concurrency());
      store::PlanOutcome plan;
      store::ScanDir scan = store::plan_scan(
          job->gadget, job->label, job->request.options, *store, scan_jobs,
          &plan);
      outcome.key = plan.key;
      outcome.hit = plan.resumed;
      store::WorkerOptions wopts;
      wopts.jobs = scan_jobs;
      wopts.cancel = &job->cancel;
      wopts.basis = plan.basis;  // still in memory from planning
      // In-process fold: when this drain writes every checkpoint (fresh
      // scan, no concurrent worker), finalize skips the disk read-back.
      verify::ReportAssembler assembler(plan.basis, scan.manifest().options);
      wopts.assembler = &assembler;
      const store::WorkerOutcome ran =
          store::run_scan_worker(scan, store.get(), wopts);
      if (!ran.drained)
        throw std::runtime_error(
            "scan interrupted after " + std::to_string(ran.shards_done) +
            " shards; checkpoints kept — resubmit to resume");
      outcome.saved = ran.shards_done > 0;
      result = store::finalize_scan(scan, store.get(), plan.basis, &assembler);
    } else if (store) {
      result = store::verify_with_store(job->gadget, job->request.options,
                                        *store, &outcome, &job->cancel);
    } else {
      // The storeless path still warm-starts nothing but still honors the
      // per-request token: run the cold pipeline by hand so the token
      // reaches verify_basis.
      const circuit::Unfolded unfolded =
          verify::unfold_for(job->gadget, job->request.options);
      verify::ObservableSet observables = verify::build_observables(
          job->gadget, unfolded, job->request.options.probes);
      result = verify::verify_basis(
          verify::build_basis(unfolded, observables,
                              job->request.options.engine),
          job->request.options, &job->cancel);
    }
    const double seconds = watch.seconds();
    const std::string report = render_report(job->request, job->gadget,
                                             job->label, result, seconds);
    obs::Journal::instance().info("daemon", "completed",
                                  {{"label", job->label},
                                   {"trace_id", job->trace_id},
                                   {"exit", exit_code_of(result)},
                                   {"seconds", seconds},
                                   {"store_hit", outcome.hit}});
    std::lock_guard<std::mutex> jobs_lock(jobs_mu);
    inflight.erase(job->digest);
    daemon_counter("daemon.completed").add();
    for (const Waiter& w : job->waiters_snapshot())
      w.conn->send_line(result_frame(w.id, exit_code_of(result),
                                     outcome.hit, outcome.saved, report));
    return;
  } catch (const std::exception& e) {
    obs::Journal::instance().error("daemon", "job_failed",
                                   {{"label", job->label},
                                    {"trace_id", job->trace_id},
                                    {"message", e.what()}});
    std::lock_guard<std::mutex> jobs_lock(jobs_mu);
    inflight.erase(job->digest);
    daemon_counter("daemon.errors").add();
    for (const Waiter& w : job->waiters_snapshot())
      w.conn->send_line(error_frame(w.id, e.what()));
  }
}

void Server::Impl::accept_loop() {
  while (running.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listening socket broken: nothing sensible left to do
    }
    auto conn = std::make_shared<Connection>(fd);
    daemon_counter("daemon.connections").add();
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      // Prune connections whose readers already finished.
      std::erase_if(conns, [](const std::weak_ptr<Connection>& w) {
        return w.expired();
      });
      conns.push_back(conn);
      ++active_readers;
    }
    std::thread([this, conn] { reader_loop(std::move(conn)); }).detach();
  }
}

void Server::Impl::reader_loop(ConnectionPtr conn) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(conn, line);
    }
    buffer.erase(0, start);
    // A protocol this small never needs giant lines; cap the buffer so a
    // hostile peer can't balloon daemon memory with an unterminated line.
    if (buffer.size() > (64u << 20)) break;
  }
  detach_connection(conn);
  ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    --active_readers;
    // Notify while holding the lock: the instant the count hits zero,
    // stop() may return and the Server be destroyed — an unlocked notify
    // would then touch a dead condition variable.
    conns_cv.notify_all();
  }
}

void Server::Impl::detach_connection(const ConnectionPtr& conn) {
  // Drop this connection's waiters; cancel jobs nobody is waiting on any
  // more (cooperative — a running engine stops at its next combination).
  std::lock_guard<std::mutex> jobs_lock(jobs_mu);
  for (auto& [digest, job] : inflight) {
    std::lock_guard<std::mutex> lock(job->mu);
    auto& ws = job->waiters;
    for (std::size_t i = ws.size(); i > 0; --i)
      if (ws[i - 1].conn == conn) ws.erase(ws.begin() + (i - 1));
    if (ws.empty() && job->started) job->cancel.cancel();
  }
}

Server::Server(Options options) : impl_(new Impl(std::move(options))) {}

Server::~Server() {
  try {
    stop();
  } catch (...) {
  }
}

const std::string& Server::socket_path() const {
  return impl_->options.socket_path;
}

void Server::start() {
  Impl& d = *impl_;
  if (d.options.socket_path.empty())
    throw std::runtime_error("sanid: socket path is required");

  if (!d.options.store_dir.empty()) {
    store::ArtifactStore::Options store_opt;
    store_opt.dir = d.options.store_dir;
    store_opt.max_bytes = d.options.store_max_bytes;
    d.store = std::make_unique<store::ArtifactStore>(store_opt);
  }

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (d.options.socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("sanid: socket path too long: " +
                             d.options.socket_path);
  std::memcpy(addr.sun_path, d.options.socket_path.c_str(),
              d.options.socket_path.size() + 1);

  d.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (d.listen_fd < 0)
    throw std::runtime_error("sanid: cannot create socket");
  ::unlink(d.options.socket_path.c_str());  // stale socket from a crash
  if (::bind(d.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(d.listen_fd);
    d.listen_fd = -1;
    throw std::runtime_error("sanid: cannot bind " + d.options.socket_path);
  }
  if (::listen(d.listen_fd, 64) < 0) {
    ::close(d.listen_fd);
    d.listen_fd = -1;
    throw std::runtime_error("sanid: cannot listen on " +
                             d.options.socket_path);
  }

  d.running.store(true, std::memory_order_release);
  const int executors = d.options.executors > 0 ? d.options.executors : 1;
  for (int i = 0; i < executors; ++i)
    d.executors.emplace_back([&d] { d.executor_loop(); });
  d.accept_thread = std::thread([&d] { d.accept_loop(); });
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mu);
    impl_->stop_requested = true;
  }
  impl_->stop_cv.notify_all();
}

void Server::wait_for_stop() {
  std::unique_lock<std::mutex> lock(impl_->stop_mu);
  impl_->stop_cv.wait(lock, [&] { return impl_->stop_requested; });
}

void Server::stop() {
  Impl& d = *impl_;
  {
    std::lock_guard<std::mutex> lock(d.stop_mu);
    if (d.stopped) return;
    d.stopped = true;
    d.stop_requested = true;
  }
  d.stop_cv.notify_all();
  d.running.store(false, std::memory_order_release);

  // Stop admitting: new pops return nullopt, queued-but-unstarted jobs are
  // failed explicitly so no client hangs waiting for a result frame.
  d.queue.close();
  for (const JobPtr& job : d.queue.drain()) {
    {
      std::lock_guard<std::mutex> lock(d.jobs_mu);
      d.inflight.erase(job->digest);
    }
    for (const Waiter& w : job->waiters_snapshot())
      w.conn->send_line(error_frame(w.id, "daemon is shutting down"));
  }
  // Cancel whatever is still running (cooperative).
  {
    std::lock_guard<std::mutex> lock(d.jobs_mu);
    for (auto& [digest, job] : d.inflight) job->cancel.cancel();
  }

  // Wake accept() first, but close the fd only after the accept thread is
  // joined: it still reads listen_fd, and an early close would let the
  // kernel recycle the descriptor under a racing accept() call.
  if (d.listen_fd >= 0) ::shutdown(d.listen_fd, SHUT_RDWR);
  if (d.accept_thread.joinable()) d.accept_thread.join();
  if (d.listen_fd >= 0) {
    ::close(d.listen_fd);
    d.listen_fd = -1;
  }
  for (std::thread& t : d.executors)
    if (t.joinable()) t.join();
  d.executors.clear();

  // Shut down every live connection (wakes blocked recv()s), then wait for
  // the detached readers to drain.
  {
    std::unique_lock<std::mutex> lock(d.conns_mu);
    for (const auto& weak : d.conns)
      if (ConnectionPtr conn = weak.lock()) conn->shutdown_both();
    d.conns_cv.wait(lock, [&d] { return d.active_readers == 0; });
  }

  if (!d.options.socket_path.empty())
    ::unlink(d.options.socket_path.c_str());
}

}  // namespace sani::daemon
