#include "verify/driver.h"

#include <stdexcept>

#include "util/combinations.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "verify/backends/backend.h"
#include "verify/backends/registry.h"

namespace sani::verify {

Driver::Driver(std::shared_ptr<const Basis> basis,
               const VerifyOptions& options, sched::CancelToken& cancel)
    : basis_(std::move(basis)),
      options_(options),
      needs_region_(backend_info(options.engine).needs_region),
      records_deps_(options.union_check && options.notion != Notion::kProbing),
      manager_(backend_info(options.engine).needs_thaw
                   ? std::make_unique<dd::Manager>(basis_->vars.num_vars,
                                                   options.cache_bits)
                   : nullptr),
      thawed_(thaw_roots()),
      preds_(manager_ ? std::make_unique<PredicateBuilder>(
                            *manager_, basis_->vars, options.joint_share_count)
                      : nullptr),
      rowcheck_(basis_->vars, options.notion, options.joint_share_count,
                basis_->relevant_publics, preds_.get(),
                &stats_.region_cache),
      rows_(1),
      cancel_(&cancel) {}

Driver::~Driver() = default;

std::vector<dd::Add> Driver::thaw_roots() {
  std::vector<dd::Add> thawed;
  if (!manager_ || basis_->frozen.empty()) return thawed;
  // Thawing must precede every other node construction so the manager
  // adopts the forest's variable order while still empty (import_forest
  // would otherwise rewrite existing diagrams in place).
  obs::Span span("thaw");
  Stopwatch watch;
  const std::vector<dd::NodeId> roots =
      manager_->import_forest(basis_->frozen);
  // import_forest never crosses a GC safe point; wrapping the roots in
  // handles here makes them GC roots before any later operation can.
  thawed.reserve(roots.size());
  for (dd::NodeId r : roots) thawed.emplace_back(manager_.get(), r);
  thaw_seconds_ = watch.seconds();
  manager_->sample_counters();
  return thawed;
}

void Driver::prepare() {
  if (backend_) return;
  const BackendInfo& info = backend_info(options_.engine);
  BackendContext ctx;
  ctx.basis = basis_;
  ctx.manager = manager_.get();
  ctx.thawed = &thawed_;
  if (preds_) ctx.rho_zero = preds_->rho_zero();
  ctx.coefficients = &stats_.coefficients;
  ctx.arena_stats = &arena_stats_;
  ctx.order = options_.order;
  backend_ = info.make(ctx);
  backend_->prepare();
}

std::optional<Driver::CheckFailure> Driver::check_combo(
    const std::vector<int>& combo, std::vector<Mask>& deps,
    ShardClock& clock) {
  ++stats_.combinations;
  if (options_.progress) options_.progress->tick();
  // Chained timestamps: one clock read after the pushes, one after the
  // check, which also starts the next combination's convolution interval.
  if (clock.stale) {
    clock.last = obs::Clock::now_ns();
    clock.stale = false;
  }
  sync_path(combo);
  const std::int64_t pushed = obs::Clock::now_ns();
  std::optional<CheckFailure> failure = check_path(deps);
  const std::int64_t checked = obs::Clock::now_ns();
  clock.convolution_ns += pushed - clock.last;
  clock.check_ns += checked - pushed;
  clock.last = checked;
  ++clock.checks;
  // Per-rank check latency, from the same two reads, only when a metrics
  // export was requested.
  auto& metrics = obs::Metrics::instance();
  if (metrics.enabled()) {
    const std::size_t depth = combo.size();
    if (rank_hist_.size() <= depth) rank_hist_.resize(depth + 1, nullptr);
    if (rank_hist_[depth] == nullptr)
      rank_hist_[depth] =
          &metrics.histogram("verify.check_ns.k" + std::to_string(depth));
    rank_hist_[depth]->record(static_cast<std::uint64_t>(checked - pushed));
  }
  return failure;
}

std::optional<Driver::CheckFailure> Driver::check_path(
    std::vector<Mask>& deps) {
  const RowContext& row = rows_.back();
  RowCheckQuery q;
  if (needs_region_) q = rowcheck_.query(row, &stats_.coefficients);
  q.checker = &rowcheck_.checker();
  q.row = &row;
  Mask V;
  if (records_deps_) q.deps = &V;

  if (auto alpha = backend_->check_rows(q)) {
    return CheckFailure{*alpha,
                        "nonzero Walsh coefficient in the forbidden region "
                        "(per-row T-predicate check)"};
  }
  if (records_deps_) deps.push_back(V);
  return std::nullopt;
}

void Driver::sync_path(const std::vector<int>& combo) {
  std::size_t common = 0;
  while (common < path_.size() && common < combo.size() &&
         path_[common] == combo[common])
    ++common;
  while (path_.size() > common) {
    backend_->pop();
    path_.pop_back();
    rows_.pop_back();
  }
  while (path_.size() < combo.size()) {
    const int i = combo[path_.size()];
    path_.push_back(i);
    const ObservableInfo& o = basis_->obs[static_cast<std::size_t>(i)];
    rows_.push_back(rows_.back());
    rows_.back().add(o.kind == Observable::Kind::kOutput,
                     o.output_share_index);
    backend_->push(path_);
  }
}

void Driver::run_shard_partial(
    const sched::Shard& shard,
    const std::function<bool(const std::vector<int>&)>& still_relevant,
    ShardOutcome& out, PartialReport& part) {
  prepare();
  const std::uint64_t combos0 = stats_.combinations;
  const std::uint64_t coeffs0 = stats_.coefficients;
  const CacheStats region0 = stats_.region_cache;

  part.k = shard.k;
  part.begin = shard.begin;
  part.end = shard.end;
  const int N = static_cast<int>(basis_->size());
  if (shard.k >= 1 && shard.k <= N && shard.begin < shard.end) {
    if (records_deps_) part.deps.reserve(shard.size());
    std::vector<int> combo = unrank_combination(N, shard.k, shard.begin);
    ShardClock clock;
    clock.last = obs::Clock::now_ns();
    const std::int64_t start = clock.last;
    for (std::uint64_t r = shard.begin; r < shard.end;) {
      if (cancel_->expired()) {
        out.timed_out = true;
        cancel_->acknowledge();
        break;
      }
      // A counterexample elsewhere only ends this shard once the
      // combinations still ahead of us are ordered after it — everything
      // ordered before the best failure must be checked, or the merged
      // witness would depend on scheduling.
      if (cancel_->cancelled() && still_relevant && !still_relevant(combo)) {
        out.abandoned = true;
        cancel_->acknowledge();
        break;
      }
      // The plan's one decision per step: check, replay a failure, or
      // replay a run of passes in bulk (counters, progress and their
      // dependency masks).  Once the token is cancelled every combination
      // is weighed one at a time, so the shard stops exactly where it stops
      // without a plan.
      const IncrementalPlan::Step step =
          plan_ ? plan_->step(combo, r,
                              cancel_->cancelled() ? r + 1 : shard.end,
                              plan_scratch_)
                : IncrementalPlan::Step{};
      if (step.kind == IncrementalPlan::Step::Kind::kCheck) {
        if (plan_) ++stats_.incremental.combinations_rechecked;
        if (auto failure = check_combo(combo, part.deps, clock)) {
          part.has_failure = true;
          part.fail_rank = r;
          part.fail_alpha = failure->alpha;
          part.fail_reason = std::move(failure->reason);
          break;
        }
        if (++r < shard.end && !next_combination(combo, N)) break;
        continue;
      }
      const std::uint64_t n =
          step.kind == IncrementalPlan::Step::Kind::kPasses ? step.n : 1;
      stats_.combinations += n;
      stats_.incremental.combinations_skipped += n;
      if (options_.progress) options_.progress->tick(n);
      clock.stale = true;
      if (step.kind == IncrementalPlan::Step::Kind::kFailure) {
        part.has_failure = true;
        part.fail_rank = r;
        part.fail_alpha = step.run->alpha;
        part.fail_reason = step.run->reason;
        break;
      }
      if (step.masks)
        part.deps.insert(part.deps.end(), step.masks, step.masks + n);
      r += n;
      if (r >= shard.end) break;
      if (n > 1)
        combo = unrank_combination(N, shard.k, r);
      else if (!next_combination(combo, N))
        break;
    }
    // The gap after the last check (the loop's exit) is convolution time
    // like every other gap after a check.
    const std::int64_t end = obs::Clock::now_ns();
    if (!clock.stale) clock.convolution_ns += end - clock.last;
    part.convolution_seconds = obs::Clock::to_seconds(clock.convolution_ns);
    part.verification_seconds = obs::Clock::to_seconds(clock.check_ns);
    // One span per shard, plus the two phases as aggregates laid end to
    // end from the shard's start, each with the number of combinations it
    // sums over.
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      tracer.complete("scan", start, end - start);
      tracer.complete("convolution", start, clock.convolution_ns,
                      clock.checks);
      tracer.complete("add_check", start + clock.convolution_ns,
                      clock.check_ns, clock.checks);
    }
  }
  if (manager_) manager_->sample_counters();

  part.combinations = stats_.combinations - combos0;
  part.coefficients = stats_.coefficients - coeffs0;
  part.region_cache.hits = stats_.region_cache.hits - region0.hits;
  part.region_cache.misses = stats_.region_cache.misses - region0.misses;
  // Every visited rank bumps `combinations` exactly once (checked or
  // replayed), so the contiguous covered prefix falls out of the delta.
  part.covered_end = shard.begin + part.combinations;
  part.complete = !out.timed_out && !out.abandoned;
}

dd::ManagerStats Driver::manager_stats() const {
  return manager_ ? manager_->stats() : dd::ManagerStats{};
}

std::size_t Driver::manager_arena_bytes() const {
  return manager_ ? manager_->arena_bytes() : 0;
}

}  // namespace sani::verify
