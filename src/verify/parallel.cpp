#include "verify/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/progress.h"
#include "sched/cancel.h"
#include "sched/shard.h"
#include "sched/team.h"
#include "util/combinations.h"
#include "verify/driver.h"
#include "verify/incremental.h"
#include "verify/partial.h"

namespace sani::verify {

std::vector<std::unique_ptr<Driver>> run_claim_loops(
    int jobs, const std::vector<sched::Shard>& shards, ShardFlow& flow,
    const std::function<std::unique_ptr<Driver>(int worker)>& make_driver) {
  // A busy claim waits until a sibling settles a shard (sinks, releases or
  // fails), or for flow.busy_wait at most.
  std::mutex settle_mu;
  std::condition_variable settle_cv;
  std::atomic<std::uint64_t> settled{0};
  auto settle = [&] {
    {
      std::lock_guard<std::mutex> lk(settle_mu);
      settled.fetch_add(1, std::memory_order_relaxed);
    }
    settle_cv.notify_all();
  };
  auto stopped = [&] { return flow.failed.load(std::memory_order_relaxed); };

  std::vector<std::unique_ptr<Driver>> drivers(
      static_cast<std::size_t>(std::max(1, jobs)));
  sched::run_workers(jobs, [&](int w) {
    std::unique_ptr<Driver>& driver = drivers[static_cast<std::size_t>(w)];
    std::size_t held = 0;
    bool holding = false;  // `held` is claimed and not handed to the sink
    try {
      while (!stopped()) {
        const std::uint64_t seen = settled.load(std::memory_order_relaxed);
        const std::optional<std::size_t> claim = flow.claim();
        if (!claim) return;
        if (*claim == ShardFlow::kBusy) {
          std::unique_lock<std::mutex> lk(settle_mu);
          settle_cv.wait_for(lk, flow.busy_wait, [&] {
            return settled.load(std::memory_order_relaxed) != seen ||
                   stopped();
          });
          continue;
        }
        held = *claim;
        holding = true;
        if (!driver) driver = make_driver(w);
        Driver::ShardOutcome out;
        PartialReport part;
        driver->run_shard_partial(shards[held], flow.still_relevant, out,
                                  part);
        if (flow.persists && !part.complete) break;
        flow.sink(w, held, out, std::move(part));
        holding = false;
        settle();
      }
    } catch (...) {
      flow.failed.store(true, std::memory_order_relaxed);
      if (holding && flow.release) flow.release(held);
      settle();
      throw;
    }
    if (holding) {  // stopped by a cancel mid-shard
      flow.release(held);
      settle();
    }
  });
  return drivers;
}

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

  // Each worker builds its Driver on its own thread (the ADD engines thaw
  // the frozen forest there — the only per-worker setup); every worker
  // shares the one immutable plan without synchronization.
  const IncrementalPlan* plan = ictx ? ictx->plan : nullptr;
  auto make_driver = [&](int) {
    auto driver = std::make_unique<Driver>(basis, options, cancel);
    driver->set_plan(plan);
    return driver;
  };

  // Workers emit one PartialReport per shard and the assembler folds each
  // in as it completes (order-minimal failure, merged dependency table) —
  // the fold is associative, so the completion order cannot show in the
  // result.
  std::mutex best_mu;
  ReportAssembler assembler(basis, options);
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::size_t> cursor{0};
  std::vector<std::uint64_t> worker_shards(static_cast<std::size_t>(jobs));

  ShardFlow flow;
  // True while checking `combo` can still change the result: before any
  // failure, until an external cancel() (a failure is folded in before the
  // token is cancelled, so a cancelled token without one is external);
  // after one, while `combo` is ordered before the best known failure.
  flow.still_relevant = [&](const std::vector<int>& combo) {
    std::lock_guard<std::mutex> lk(best_mu);
    if (!assembler.has_failure()) return !cancel.cancelled();
    return combo_before(combo, assembler.failure_combo(), largest);
  };
  flow.claim = [&]() -> std::optional<std::size_t> {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards.size()) return std::nullopt;
      // Claiming a whole shard is pointless once it cannot change the
      // result; skip it outright.
      const sched::Shard& shard = shards[i];
      if (cancel.cancelled() &&
          !flow.still_relevant(unrank_combination(N, shard.k, shard.begin))) {
        skipped.fetch_add(1, std::memory_order_relaxed);
        cancel.acknowledge();
        continue;
      }
      return i;
    }
  };
  flow.sink = [&](int worker, std::size_t, const Driver::ShardOutcome& out,
                  PartialReport&& part) {
    ++worker_shards[static_cast<std::size_t>(worker)];
    if (out.abandoned) abandoned.fetch_add(1, std::memory_order_relaxed);
    const bool failed = part.has_failure;
    {
      std::lock_guard<std::mutex> lk(best_mu);
      assembler.add(std::move(part));
    }
    if (failed) cancel.cancel();
  };

  if (options.progress)
    options.progress->start(count_combinations_up_to(N, options.order));
  const std::vector<std::unique_ptr<Driver>> drivers =
      run_claim_loops(jobs, shards, flow, make_driver);
  if (options.progress) options.progress->stop();

  // Every combination replayed (none re-checked) from a summary whose
  // table passed at this order, every cone reused: the merged table is
  // that summary's, so its union verdict stands.
  std::uint64_t rechecked = 0;
  for (const auto& d : drivers)
    if (d) rechecked += d->stats().incremental.combinations_rechecked;
  if (plan && rechecked == 0)
    if (const UnionVerdict* v = plan->replayable_union_verdict(options.order))
      assembler.replay_union_verdict(*v);

  VerifyResult result = assembler.finalize(&cancel);
  result.stats.incremental.union_replayed = assembler.union_replayed();
  // The run's summary is what the assembler folded — unless every cone kept
  // its index and every verdict came from the plan's summary, which then
  // already holds everything this one would (an unchanged or renamed
  // resubmission writes nothing).
  const bool replayed_all = plan && plan->layout_preserving() &&
                            plan->cones_reused() ==
                                static_cast<std::uint64_t>(N) &&
                            rechecked == 0 && !result.timed_out;
  if (ictx && ictx->summary_out && !replayed_all)
    *ictx->summary_out = make_summary(*basis, options, std::move(assembler));

  // The runtime fields only the workers know.
  VerifyStats& stats = result.stats;
  if (options.jobs != 1) {
    ParallelStats& p = stats.parallel;
    p.jobs = jobs;
    // Constants kept as report fields: every engine shares the one Basis
    // (no unfolding replays), and one cursor hands out every shard (no
    // owner to steal from).
    p.shared_basis = true;
    p.replays = 0;
    p.shards_stolen = 0;
    p.shards_total = shards.size();
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
  if (stats.thaw_seconds > 0)
    stats.timers.add(Phase::kThaw, stats.thaw_seconds);
  return result;
}

}  // namespace sani::verify
