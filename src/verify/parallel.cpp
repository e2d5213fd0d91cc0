#include "verify/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sched/cancel.h"
#include "sched/pool.h"
#include "sched/shard.h"
#include "util/combinations.h"
#include "obs/progress.h"
#include "verify/driver.h"
#include "verify/incremental.h"
#include "verify/partial.h"

namespace sani::verify {

VerifyResult run_shards(std::shared_ptr<const Basis> basis,
                        const VerifyOptions& options,
                        sched::CancelToken* external_cancel,
                        const IncrementalContext* ictx) {
  const int jobs = sched::default_jobs(options.jobs);

  sched::CancelToken own_cancel;
  sched::CancelToken& cancel = external_cancel ? *external_cancel : own_cancel;
  if (options.time_limit > 0) cancel.set_deadline_after(options.time_limit);

  const int N = static_cast<int>(basis->size());
  const bool largest = options.search_order == SearchOrder::kLargestFirst;
  sched::ShardPlanOptions plan_options;
  if (options.shard_size > 0) plan_options.fixed_size = options.shard_size;
  const std::vector<sched::Shard> shards =
      sched::plan_shards(N, options.order, jobs, largest, plan_options);

  // Per-worker outcome recorders for the fresh summary (merged below);
  // every worker shares the one immutable plan without synchronization.
  std::vector<std::unique_ptr<SummaryCollector>> collectors;
  if (ictx && ictx->collector) {
    collectors.resize(static_cast<std::size_t>(jobs));
    for (auto& c : collectors)
      c = std::make_unique<SummaryCollector>(N, options.order);
  }
  // Worker 0's Driver is built here, on the calling thread that runs it;
  // the others lazily on their own threads (the ADD engines thaw the
  // basis' frozen forest into a private manager in the Driver constructor
  // — the only per-worker setup).
  std::vector<std::unique_ptr<Driver>> drivers(static_cast<std::size_t>(jobs));
  std::vector<std::uint64_t> worker_shards(static_cast<std::size_t>(jobs));
  auto make_driver = [&](int worker) {
    auto driver = std::make_unique<Driver>(basis, options, &cancel);
    if (ictx)
      driver->set_incremental(
          ictx->plan, collectors.empty()
                          ? nullptr
                          : collectors[static_cast<std::size_t>(worker)].get());
    return driver;
  };
  drivers[0] = make_driver(0);

  // Workers emit one PartialReport per shard and the assembler folds each
  // in as it completes (order-minimal failure, merged dependency store) —
  // the fold is associative, so the completion order cannot show in the
  // result.
  std::mutex best_mu;
  ReportAssembler assembler(basis, options);
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> abandoned{0};

  // True while checking `combo` can still change the result: before any
  // failure, until an external cancel() (a failure is folded in before the
  // token is cancelled, so a cancelled token without one is external);
  // after one, while `combo` is ordered before the best known failure.
  auto still_relevant = [&](const std::vector<int>& combo) {
    std::lock_guard<std::mutex> lk(best_mu);
    if (!assembler.has_failure()) return !cancel.cancelled();
    return combo_before(combo, assembler.failure_combo(), largest);
  };

  if (options.progress)
    options.progress->start(count_combinations_up_to(N, options.order));

  sched::Pool pool(jobs);
  const sched::PoolStats pool_stats = pool.run(
      shards.size(), [&](int worker, std::size_t task) {
        std::unique_ptr<Driver>& driver =
            drivers[static_cast<std::size_t>(worker)];
        if (!driver) driver = make_driver(worker);
        const sched::Shard& shard = shards[task];

        // Claiming a whole shard is pointless once it cannot change the
        // result; skip it outright.
        if (cancel.cancelled() &&
            !still_relevant(unrank_combination(N, shard.k, shard.begin))) {
          skipped.fetch_add(1, std::memory_order_relaxed);
          cancel.acknowledge();
          return;
        }

        Driver::ShardOutcome out;
        PartialReport part;
        driver->run_shard_partial(shard, still_relevant, out, part);
        ++worker_shards[static_cast<std::size_t>(worker)];
        if (out.abandoned) abandoned.fetch_add(1, std::memory_order_relaxed);
        const bool failed = part.has_failure;
        {
          std::lock_guard<std::mutex> lk(best_mu);
          assembler.add(std::move(part));
        }
        if (failed) cancel.cancel();
      });

  if (options.progress) options.progress->stop();
  for (const auto& c : collectors) ictx->collector->merge_from(*c);

  VerifyResult result = assembler.finalize(&cancel);
  if (ictx && ictx->deps_out) ictx->deps_out->merge_from(assembler.qinfo());

  // The runtime fields only the workers know.
  VerifyStats& stats = result.stats;
  if (options.jobs != 1) {
    ParallelStats& p = stats.parallel;
    p.jobs = jobs;
    // Every engine shares the one Basis; the frozen forest replaced the
    // per-worker unfolding replays, so these are constants, kept as report
    // fields (and test assertions) rather than run-dependent state.
    p.shared_basis = true;
    p.replays = 0;
    p.shards_total = shards.size();
    p.shards_stolen = pool_stats.tasks_stolen;
    p.shards_skipped = skipped.load(std::memory_order_relaxed);
    p.shards_abandoned = abandoned.load(std::memory_order_relaxed);
    p.cancel_latency = cancel.max_ack_latency();
    p.workers.resize(static_cast<std::size_t>(jobs));
  }
  for (std::size_t w = 0; w < drivers.size(); ++w) {
    if (!drivers[w]) continue;  // this worker never claimed a shard
    const Driver& d = *drivers[w];
    const VerifyStats& ws = d.stats();
    const dd::ManagerStats dd = d.manager_stats();
    stats.thaw_seconds += d.thaw_seconds();
    stats.dd_cache_hits += dd.cache_hits;
    stats.dd_cache_misses += dd.cache_misses;
    stats.dd_peak_nodes = std::max(stats.dd_peak_nodes, dd.peak_nodes);
    stats.dd_gc_runs += dd.gc_runs;
    stats.dd_cache_survived += dd.cache_survived;
    stats.dd_arena_bytes =
        std::max(stats.dd_arena_bytes, d.manager_arena_bytes());
    const spectral::ArenaStats& arena = d.arena_stats();
    stats.arena_convolutions += arena.convolutions;
    stats.arena_grows += arena.grows;
    stats.arena_peak_bytes = std::max(stats.arena_peak_bytes, arena.peak_bytes);
    stats.incremental.combinations_skipped +=
        ws.incremental.combinations_skipped;
    stats.incremental.combinations_rechecked +=
        ws.incremental.combinations_rechecked;
    if (!stats.parallel.workers.empty()) {
      WorkerStats& out = stats.parallel.workers[w];
      out.shards = worker_shards[w];
      out.combinations = ws.combinations;
      out.coefficients = ws.coefficients;
      out.thaw_seconds = d.thaw_seconds();
      out.peak_nodes = dd.peak_nodes;
    }
  }
  if (stats.thaw_seconds > 0) stats.timers.add("thaw", stats.thaw_seconds);
  return result;
}

}  // namespace sani::verify
