#include "store/scan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sched/cancel.h"
#include "sched/shard.h"
#include "store/cached_verify.h"
#include "store/telemetry.h"
#include "verify/driver.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/partial.h"

namespace sani::store {

namespace {

/// Does this Basis physically carry the representations `needs` asks for?
/// (A zero-observable gadget legitimately has every table empty.)
bool basis_covers(const verify::Basis& basis,
                  const verify::BasisNeeds& needs) {
  if (basis.size() == 0) return true;
  if (needs.spectra && basis.flat.empty()) return false;
  if (needs.lil && basis.lil.empty()) return false;
  if (needs.frozen_fns && basis.frozen_fn_roots.empty()) return false;
  if (needs.frozen_spectra && basis.frozen_spectrum_roots.empty())
    return false;
  return true;
}

verify::BasisNeeds union_needs(const verify::BasisNeeds& a,
                               const verify::BasisNeeds& b) {
  verify::BasisNeeds u;
  u.spectra = a.spectra || b.spectra;
  u.lil = a.lil || b.lil;
  u.frozen_fns = a.frozen_fns || b.frozen_fns;
  u.frozen_spectra = a.frozen_spectra || b.frozen_spectra;
  return u;
}

/// The worker/finalizer Basis: the store's artifact when it covers
/// `needs`, else a rebuild from the manifest's canonical ILANG (the
/// manifest is self-contained by design — a worker on a machine with an
/// empty store still runs).  Rebuilds are saved back best-effort.
std::shared_ptr<const verify::Basis> resolve_basis(
    const ScanManifest& m, ArtifactStore* store,
    const verify::BasisNeeds& needs) {
  if (store) {
    std::shared_ptr<const verify::Basis> basis =
        store->load_basis(m.basis_key);
    if (basis && basis_covers(*basis, needs)) return basis;
  }
  const circuit::Gadget gadget = circuit::parse_ilang_string(m.canonical_ilang);
  const circuit::Unfolded unfolded = verify::unfold_for(gadget, m.options);
  const verify::ObservableSet observables =
      verify::build_observables(gadget, unfolded, m.options.probes);
  const verify::BasisNeeds built = union_needs(m.needs, needs);
  std::shared_ptr<const verify::Basis> basis =
      verify::build_basis(unfolded, observables, built);
  if (store) store->save_basis(m.basis_key, *basis, built);
  return basis;
}

/// Semantic options a worker runs shards with: the manifest's canonical
/// options minus every runtime knob that must not leak into a checkpoint
/// (deadlines, progress, job counts — a PartialReport is a pure function
/// of basis/options/shard, so nothing wall-clock-shaped may steer it).
verify::VerifyOptions worker_options(const ScanManifest& m,
                                     verify::EngineKind engine) {
  verify::VerifyOptions o = m.options;
  if (engine != verify::EngineKind::kAuto) o.engine = engine;
  o.time_limit = 0.0;
  o.jobs = 1;
  o.progress = nullptr;
  o.incremental = false;
  o.deterministic_report = false;
  return o;
}

}  // namespace

std::string scan_dir_for(const std::string& store_dir,
                         const std::string& key) {
  return store_dir + "/scans/" + key;
}

std::vector<std::string> list_scan_dirs(const std::string& store_dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> dirs;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(store_dir + "/scans", ec)) {
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

ScanDir plan_scan(const circuit::Gadget& gadget, const std::string& label,
                  const verify::VerifyOptions& options, ArtifactStore& store,
                  int workers_hint, PlanOutcome* outcome) {
  const std::string ilang = circuit::write_ilang_string(gadget);
  const std::string basis_key = artifact_key(ilang, options);
  const verify::BasisNeeds needs = needs_for_engine(options.engine);

  std::shared_ptr<const verify::Basis> basis = store.load_basis(basis_key);
  if (basis) {
    if (outcome) outcome->basis_hit = true;
  } else {
    const circuit::Unfolded unfolded = verify::unfold_for(gadget, options);
    const verify::ObservableSet observables =
        verify::build_observables(gadget, unfolded, options.probes);
    basis = verify::build_basis(unfolded, observables, options.engine);
    const bool saved = store.save_basis(basis_key, *basis, needs);
    if (outcome) outcome->basis_saved = saved;
  }

  ScanManifest m;
  m.label = label.empty() ? gadget.netlist.name() : label;
  m.canonical_ilang = ilang;
  m.basis_key = basis_key;
  // The manifest's engine is always concrete, so every worker and the
  // finalizer agree on the canonical report shape.
  m.options = options;
  m.options.engine = verify::resolve_engine(options.engine);
  m.options = worker_options(m, verify::EngineKind::kAuto);
  m.needs = needs;
  m.num_observables = basis->size();
  m.num_secrets = static_cast<std::uint32_t>(basis->vars.secret_vars.size());
  m.base_coefficients = basis->base_coefficients;
  m.build_seconds = basis->build_seconds;
  m.frozen_nodes = basis->frozen.node_count();
  m.frozen_bytes = basis->frozen.empty() ? 0 : basis->frozen.bytes();

  sched::ShardPlanOptions plan_opts;
  plan_opts.fixed_size = m.options.shard_size;
  // Checkpointed shards carry per-shard protocol cost (claim + SANIPAR
  // write + read-back at finalize, ~hundreds of microseconds each), so the
  // scan floor is far above the in-process planner's: a shard should be
  // big enough that its checkpoint is noise next to its compute.  Small
  // jobs collapse to a handful of shards — crash-injection tests that want
  // fine granularity ask for it explicitly via options.shard_size.
  plan_opts.min_size = 1024;
  const bool largest =
      m.options.search_order == verify::SearchOrder::kLargestFirst;
  m.shards = sched::plan_shards(static_cast<int>(basis->size()),
                                m.options.order,
                                workers_hint > 0 ? workers_hint : 1, largest,
                                plan_opts);

  const std::string key = manifest_key(m);
  // Mint the fleet trace id from the content key: re-planning (or a
  // crash/resume) of the same job lands on the same id without any
  // coordination, and the id never feeds back into the key (manifest_key
  // ignores it).
  m.trace_id = key.substr(0, 16);
  const std::string dir = scan_dir_for(store.dir(), key);
  if (outcome) {
    outcome->key = key;
    outcome->dir = dir;
    outcome->resumed = std::ifstream(dir + "/manifest").good();
    outcome->basis = basis;
  }
  return ScanDir::create(dir, m);
}

WorkerOutcome run_scan_worker(ScanDir& scan, ArtifactStore* store,
                              const WorkerOptions& options) {
  const ScanManifest& m = scan.manifest();
  const verify::VerifyOptions wopts = worker_options(m, options.engine);
  const verify::BasisNeeds needs = needs_for_engine(wopts.engine);
  std::shared_ptr<const verify::Basis> basis =
      options.basis && basis_covers(*options.basis, needs)
          ? options.basis
          : resolve_basis(m, store, needs);

  if (options.progress) {
    options.progress->start(m.total_combinations());
    const ScanDir::Status st = scan.status();
    if (st.combinations_done > 0)
      options.progress->tick(st.combinations_done);
  }

  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> reclaimed{0};
  std::atomic<std::uint64_t> combinations{0};
  std::atomic<std::uint64_t> claimed{0};

  obs::Journal::instance().info(
      "scan", "worker_start",
      {{"dir", scan.dir()},
       {"trace_id", m.trace_id},
       {"engine", verify::engine_name(wopts.engine)},
       {"jobs", options.jobs > 0 ? options.jobs : 1}});

  // Telemetry sampler: periodically publish this worker's snapshot into
  // <scan-dir>/telemetry/ so `sani top` / `--status` anywhere on the
  // shared directory can see the live fleet.  Failures are swallowed —
  // telemetry never takes down a scan.
  Stopwatch telemetry_clock;
  char hostbuf[256] = "?";
  ::gethostname(hostbuf, sizeof(hostbuf) - 1);
  auto make_snapshot = [&]() {
    WorkerSnapshot snap;
    snap.pid = static_cast<std::uint64_t>(::getpid());
    snap.host = hostbuf;
    snap.trace_id = m.trace_id;
    snap.engine = verify::engine_name(wopts.engine);
    snap.uptime_seconds = obs::process_uptime_seconds();
    snap.shards_claimed = claimed.load(std::memory_order_relaxed);
    snap.shards_done = done.load(std::memory_order_relaxed);
    snap.combinations = combinations.load(std::memory_order_relaxed);
    const double elapsed = telemetry_clock.seconds();
    snap.rate = elapsed > 0.0
                    ? static_cast<double>(snap.combinations) / elapsed
                    : 0.0;
    snap.rss_bytes = obs::process_rss_bytes();
    snap.live_nodes = obs::Metrics::instance().gauge("dd.live_nodes").value();
    return snap;
  };
  // The sampler waits on a condition variable rather than sleeping, so
  // stopping it at the end of the scan costs no wait-out of a sleep slice.
  std::mutex sampler_mutex;
  std::condition_variable sampler_wake;
  bool sampling = false;
  std::thread sampler;
  if (options.telemetry_interval_seconds > 0.0) {
    write_worker_snapshot(scan.dir(), make_snapshot());
    sampling = true;
    sampler = std::thread([&] {
      const auto interval =
          std::chrono::duration<double>(options.telemetry_interval_seconds);
      std::unique_lock<std::mutex> lock(sampler_mutex);
      const auto stopped = [&] { return !sampling; };
      while (!sampler_wake.wait_for(lock, interval, stopped)) {
        lock.unlock();
        write_worker_snapshot(scan.dir(), make_snapshot());
        lock.lock();
      }
    });
  }

  // In-process fold state (options.assembler): each shard is folded at most
  // once, by whichever thread's checkpoint write landed first.  Duplicate
  // executions after a lease steal write identical bytes but must not be
  // folded twice — add() sums counters.
  std::mutex fold_mutex;
  std::vector<char> folded(m.shards.size(), 0);

  // How long to sleep when every remaining shard is claimed by someone
  // else: short enough that a released/expired claim is picked up quickly,
  // long enough not to spin the directory.
  const auto poll = std::chrono::duration<double>(
      std::min(0.25, std::max(0.01, options.lease_seconds / 4.0)));

  auto worker = [&]() {
    // Per-thread driver: private backend/manager state over the one shared
    // Basis; progress (if any) ticks through the shared options object.
    verify::VerifyOptions topts = wopts;
    topts.progress = options.progress;
    verify::Driver driver(basis, topts, options.cancel);
    // The shard-stop predicate: without an external token, never stop
    // early (checkpoint purity); with one, stop at the next combination
    // once it fires — the shard is then NOT checkpointed.
    sched::CancelToken* const token = options.cancel;
    const std::function<bool(const std::vector<int>&)> still_relevant =
        [token](const std::vector<int>&) {
          return token == nullptr || !token->cancelled();
        };
    for (;;) {
      if (options.cancel && options.cancel->cancelled()) return;
      if (options.max_shards > 0 &&
          done.load(std::memory_order_relaxed) >= options.max_shards)
        return;
      std::optional<ScanDir::Claim> claim =
          scan.claim_next(options.lease_seconds);
      if (!claim) {
        if (scan.drained()) return;
        // Someone else (a thread here or another process) holds the rest.
        std::this_thread::sleep_for(poll);
        continue;
      }
      claimed.fetch_add(1, std::memory_order_relaxed);
      if (claim->reclaimed) {
        reclaimed.fetch_add(1, std::memory_order_relaxed);
        obs::Journal::instance().warn(
            "scan", "lease_stolen",
            {{"dir", scan.dir()}, {"shard", claim->index}});
      }
      if (options.throttle_seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.throttle_seconds));
      if (scan.is_done(claim->index)) {
        // Lost a duplicate-execution race after a steal; the checkpoint is
        // already the canonical bytes.
        scan.release_claim(claim->index);
        continue;
      }
      const sched::Shard& shard = m.shards[claim->index];
      verify::Driver::ShardOutcome out;
      verify::PartialReport part;
      driver.run_shard_partial(shard, still_relevant, out, part);
      if (!part.complete) {
        // Interrupted mid-shard (cancel/deadline): the partial is not a
        // pure function of the shard — release so someone reruns it whole.
        scan.release_claim(claim->index);
        return;
      }
      if (!scan.write_checkpoint(claim->index, part)) {
        scan.release_claim(claim->index);
        throw std::runtime_error("scan: cannot write checkpoint in " +
                                 scan.dir());
      }
      done.fetch_add(1, std::memory_order_relaxed);
      combinations.fetch_add(part.combinations, std::memory_order_relaxed);
      if (options.assembler) {
        std::lock_guard<std::mutex> lock(fold_mutex);
        if (!folded[claim->index]) {
          folded[claim->index] = 1;
          options.assembler->add(std::move(part));
        }
      }
    }
  };

  const int jobs = options.jobs > 0 ? options.jobs : 1;
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  if (options.progress) options.progress->stop();

  if (sampler.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mutex);
      sampling = false;
    }
    sampler_wake.notify_one();
    sampler.join();
    // Final snapshot so the last shards this worker finished are visible
    // immediately (the sampler may have just slept through them).
    write_worker_snapshot(scan.dir(), make_snapshot());
  }

  WorkerOutcome outcome;
  outcome.shards_done = done.load();
  outcome.shards_reclaimed = reclaimed.load();
  outcome.combinations = combinations.load();
  outcome.drained = scan.drained();
  obs::Journal::instance().info("scan", "worker_done",
                                {{"dir", scan.dir()},
                                 {"trace_id", m.trace_id},
                                 {"shards", outcome.shards_done},
                                 {"reclaimed", outcome.shards_reclaimed},
                                 {"combinations", outcome.combinations},
                                 {"drained", outcome.drained}});
  return outcome;
}

verify::VerifyResult finalize_scan(ScanDir& scan, ArtifactStore* store,
                                   std::shared_ptr<const verify::Basis> basis,
                                   verify::ReportAssembler* assembled) {
  obs::Span span("finalize");
  if (!scan.drained()) {
    const ScanDir::Status st = scan.status();
    throw std::runtime_error(
        "scan: cannot finalize, " +
        std::to_string(st.planned + st.claimed) + " of " +
        std::to_string(scan.shard_count()) + " shards not checkpointed");
  }
  const ScanManifest& m = scan.manifest();
  if (assembled && assembled->parts() == scan.shard_count()) {
    // The caller's worker folded every checkpoint it wrote, and it wrote
    // all of them (one-shot plan+drain+finalize in a single process) — the
    // in-memory state already equals the disk fold, so render from it.
    // The merge is associative, so the thread-completion fold order cannot
    // differ semantically from the index-order disk read below.
    assembled->set_basis_stats(m.frozen_nodes, m.frozen_bytes,
                               m.base_coefficients, m.build_seconds);
    return assembled->finalize();
  }
  const verify::BasisNeeds needs = needs_for_engine(m.options.engine);
  if (!basis || !basis_covers(*basis, needs))
    basis = resolve_basis(m, store, needs);
  verify::ReportAssembler assembler(basis, m.options);
  // Report the plan-time basis snapshot, not the basis object in hand: a
  // cross-engine worker may have rebuilt (and re-saved) the artifact with
  // wider needs, which enlarges the frozen forest without changing any
  // verdict.
  assembler.set_basis_stats(m.frozen_nodes, m.frozen_bytes,
                            m.base_coefficients, m.build_seconds);
  for (std::size_t i = 0; i < scan.shard_count(); ++i) {
    std::optional<verify::PartialReport> part = scan.read_checkpoint(i);
    if (!part)
      throw std::runtime_error("scan: checkpoint vanished mid-finalize");
    assembler.add(std::move(*part));
  }
  return assembler.finalize();
}

}  // namespace sani::store
