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
               const VerifyOptions& options, sched::CancelToken* cancel)
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
      cancel_(cancel) {
  if (!cancel_) {
    if (options_.time_limit > 0)
      own_cancel_.set_deadline_after(options_.time_limit);
    cancel_ = &own_cancel_;
  }
}

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
  ctx.timers = &stats_.timers;
  ctx.coefficients = &stats_.coefficients;
  ctx.arena_stats = &arena_stats_;
  ctx.order = options_.order;
  backend_ = info.make(ctx);
  backend_->prepare();
}

std::optional<Driver::CheckFailure> Driver::check_combo(
    const std::vector<int>& combo, std::uint64_t rank,
    std::vector<PartialReport::Dep>& deps) {
  ++stats_.combinations;
  if (options_.progress) options_.progress->tick();
  if (plan_) {
    const IncrementalPlan::Classification c =
        plan_->classify(combo, plan_scratch_);
    if (c.kind != IncrementalPlan::Kind::kDirty) {
      ++stats_.incremental.combinations_skipped;
      if (c.kind == IncrementalPlan::Kind::kCleanPass) {
        if (collector_) collector_->note_pass(combo);
        // Splice the replayed dependency masks in, so the union pass
        // consumes exactly the store a cold run would have built.
        if (c.V)
          deps.push_back({rank, context_for_combo(*basis_, combo), *c.V});
        return std::nullopt;
      }
      CheckFailure failure{c.fail->alpha, c.fail->reason};
      if (collector_)
        collector_->note_fail(combo, failure.alpha, failure.reason);
      return failure;
    }
    ++stats_.incremental.combinations_rechecked;
  }
  sync_path(combo);
  std::optional<CheckFailure> failure;
  // Per-rank check latency: only sampled when a metrics export was
  // requested (two clock reads per combination otherwise dominate the
  // cheap low-rank checks).
  auto& metrics = obs::Metrics::instance();
  if (!metrics.enabled()) {
    failure = check_path(rank, deps);
  } else {
    const std::int64_t t0 = obs::Clock::now_ns();
    failure = check_path(rank, deps);
    const std::size_t k = path_.size();
    if (rank_hist_.size() <= k) rank_hist_.resize(k + 1, nullptr);
    if (rank_hist_[k] == nullptr)
      rank_hist_[k] =
          &metrics.histogram("verify.check_ns.k" + std::to_string(k));
    rank_hist_[k]->record(
        static_cast<std::uint64_t>(obs::Clock::now_ns() - t0));
  }
  if (collector_) {
    if (failure)
      collector_->note_fail(path_, failure->alpha, failure->reason);
    else
      collector_->note_pass(path_);
  }
  return failure;
}

std::optional<Driver::CheckFailure> Driver::check_path(
    std::uint64_t rank, std::vector<PartialReport::Dep>& deps) {
  RowContext row = context_for_combo(*basis_, path_);
  RowCheckQuery q;
  if (needs_region_) q = rowcheck_.query(row, &stats_.coefficients);
  q.checker = &rowcheck_.checker();
  q.row = &row;

  if (auto alpha = backend_->check_rows(q)) {
    return CheckFailure{*alpha,
                        "nonzero Walsh coefficient in the forbidden region "
                        "(per-row T-predicate check)"};
  }
  if (records_deps_) {
    PartialReport::Dep dep{rank, std::move(row), {}};
    dep.V.assign(basis_->vars.secret_vars.size(), Mask{});
    backend_->accumulate_deps(dep.V);
    deps.push_back(std::move(dep));
  }
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
  }
  while (path_.size() < combo.size()) {
    path_.push_back(combo[path_.size()]);
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
  const double conv0 = stats_.timers.get("convolution");
  const double verif0 = stats_.timers.get("verification");

  part.k = shard.k;
  part.begin = shard.begin;
  part.end = shard.end;
  const int N = static_cast<int>(basis_->size());
  if (shard.k >= 1 && shard.k <= N && shard.begin < shard.end) {
    obs::Span span("scan");
    if (records_deps_) part.deps.reserve(shard.size());
    std::vector<int> combo = unrank_combination(N, shard.k, shard.begin);
    for (std::uint64_t r = shard.begin; r < shard.end; ++r) {
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
      if (auto failure = check_combo(combo, r, part.deps)) {
        part.has_failure = true;
        part.fail_rank = r;
        part.fail_alpha = failure->alpha;
        part.fail_reason = std::move(failure->reason);
        break;
      }
      if (r + 1 < shard.end && !next_combination(combo, N)) break;
    }
  }
  if (manager_) manager_->sample_counters();

  part.combinations = stats_.combinations - combos0;
  part.coefficients = stats_.coefficients - coeffs0;
  part.region_cache.hits = stats_.region_cache.hits - region0.hits;
  part.region_cache.misses = stats_.region_cache.misses - region0.misses;
  part.convolution_seconds = stats_.timers.get("convolution") - conv0;
  part.verification_seconds = stats_.timers.get("verification") - verif0;
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
