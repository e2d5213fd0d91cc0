#include "verify/partial.h"

#include <algorithm>

#include "obs/clock.h"
#include "obs/trace.h"
#include "sched/cancel.h"
#include "util/combinations.h"
#include "verify/backends/registry.h"

namespace sani::verify {

bool combo_before(const std::vector<int>& a, const std::vector<int>& b,
                  bool largest_first) {
  if (largest_first && a.size() != b.size()) return a.size() > b.size();
  return a < b;
}

void union_pass(const Basis& basis, const Checker& checker,
                const QInfoStore& qinfo, sched::CancelToken* cancel,
                VerifyResult& result) {
  for (const std::vector<int>& q_path : qinfo.sorted_combos()) {
    if (cancel && cancel->expired()) {
      result.timed_out = true;
      cancel->acknowledge();
      return;
    }
    const QInfo& info = *qinfo.find(q_path);
    // V(Q) = union of deps over all sub-combinations of Q.
    std::vector<Mask> V(info.V.size());
    const std::size_t k = q_path.size();
    for (std::size_t sel = 1; sel < (std::size_t{1} << k); ++sel) {
      std::vector<int> sub;
      for (std::size_t j = 0; j < k; ++j)
        if (sel & (std::size_t{1} << j)) sub.push_back(q_path[j]);
      const QInfo* it = qinfo.find(sub);
      if (!it) continue;
      for (std::size_t s = 0; s < V.size(); ++s) V[s] |= it->V[s];
    }
    std::string reason;
    if (checker.union_violates(V, info.row, &reason)) {
      result.secure = false;
      CounterExample ce;
      for (int i : q_path)
        ce.observables.push_back(basis.obs[static_cast<std::size_t>(i)].name);
      for (const Mask& v : V) ce.alpha |= v;
      ce.reason = "set-level dependency check failed: " + reason;
      result.counterexample = std::move(ce);
      return;
    }
  }
}

RowContext context_for_combo(const Basis& basis, const std::vector<int>& combo) {
  RowContext row;
  row.num_observables = static_cast<int>(combo.size());
  for (int i : combo) {
    const ObservableInfo& o = basis.obs[static_cast<std::size_t>(i)];
    if (o.kind == Observable::Kind::kOutput) {
      ++row.num_outputs;
      row.output_indices.insert(o.output_share_index);
    } else {
      ++row.num_internal;
    }
  }
  return row;
}

ReportAssembler::ReportAssembler(std::shared_ptr<const Basis> basis,
                                 VerifyOptions options)
    : basis_(std::move(basis)),
      options_(std::move(options)),
      qinfo_(static_cast<int>(basis_->size())) {
  // The assembler renders from already-complete partials: nothing here may
  // block on a wall clock or report live progress.
  options_.time_limit = 0.0;
  options_.progress = nullptr;
}

ReportAssembler::~ReportAssembler() = default;

void ReportAssembler::add(PartialReport part) {
  ++parts_;
  const int N = static_cast<int>(basis_->size());
  combinations_ += part.combinations;
  if (part.covered_end > part.begin)
    covered_.push_back({part.k, part.begin, part.covered_end});
  coefficients_ += part.coefficients;
  region_cache_.hits += part.region_cache.hits;
  region_cache_.misses += part.region_cache.misses;
  convolution_seconds_ += part.convolution_seconds;
  verification_seconds_ += part.verification_seconds;

  if (part.has_failure) {
    std::vector<int> combo = unrank_combination(N, part.k, part.fail_rank);
    const bool largest = options_.search_order == SearchOrder::kLargestFirst;
    if (!best_ || combo_before(combo, best_->combo, largest))
      best_ = BestFailure{std::move(combo), part.fail_alpha,
                          std::move(part.fail_reason)};
  }

  if (options_.union_check && options_.notion != Notion::kProbing) {
    // A live worker hands its RowContext over; a deserialized partial
    // ships only rank + V, so the combination is recovered to rebuild it.
    // Deps arrive rank-ascending (shards check in rank order), so one
    // unrank seeds the walk and successor steps recover every later combo —
    // cheaper than a full unrank per entry.
    std::vector<int> combo;
    std::uint64_t at = 0;
    for (PartialReport::Dep& dep : part.deps) {
      QInfo info;
      if (dep.row.num_observables > 0) {
        info.row = std::move(dep.row);
      } else {
        if (combo.empty() || dep.rank < at) {
          combo = unrank_combination(N, part.k, dep.rank);
        } else {
          while (at < dep.rank) {
            next_combination(combo, N);
            ++at;
          }
        }
        at = dep.rank;
        info.row = context_for_combo(*basis_, combo);
      }
      info.V = std::move(dep.V);
      qinfo_.insert(part.k, dep.rank, std::move(info));
    }
  }
}

CounterExample ReportAssembler::failure_counterexample() const {
  CounterExample ce;
  for (int i : best_->combo)
    ce.observables.push_back(basis_->obs[static_cast<std::size_t>(i)].name);
  ce.alpha = best_->alpha;
  ce.reason = best_->reason;
  return ce;
}

void ReportAssembler::set_basis_stats(std::uint64_t frozen_nodes,
                                      std::uint64_t frozen_bytes,
                                      std::uint64_t base_coefficients,
                                      double build_seconds) {
  basis_stats_ = BasisStats{frozen_nodes, frozen_bytes, base_coefficients,
                            build_seconds};
}

VerifyResult ReportAssembler::finalize(sched::CancelToken* cancel) {
  const std::uint64_t base_coefficients =
      basis_stats_ ? basis_stats_->base_coefficients
                   : basis_->base_coefficients;
  const double build_seconds =
      basis_stats_ ? basis_stats_->build_seconds : basis_->build_seconds;
  const int N = static_cast<int>(basis_->size());

  VerifyResult result;
  result.stats.num_observables = basis_->size();
  result.stats.combinations = combinations_;
  result.stats.coefficients = base_coefficients + coefficients_;
  result.stats.region_cache = region_cache_;
  result.stats.qinfo_entries = qinfo_.size();
  result.stats.qinfo_peak_bytes = qinfo_.peak_bytes();
  result.stats.frozen_nodes =
      basis_stats_ ? static_cast<std::size_t>(basis_stats_->frozen_nodes)
                   : basis_->frozen.node_count();
  result.stats.frozen_bytes =
      basis_stats_ ? static_cast<std::size_t>(basis_stats_->frozen_bytes)
                   : (basis_->frozen.empty() ? 0 : basis_->frozen.bytes());
  // dd.cache_bits is configuration, not measurement (the deterministic
  // report keeps it): report what the canonical engine's manager is sized
  // with.  The measured dd fields stay zero — the assembler does no DD work.
  const bool needs_thaw = backend_info(options_.engine).needs_thaw;
  result.stats.dd_cache_bits = needs_thaw ? options_.cache_bits : 0;

  // Canonical phase set in the backends' first-use order, whatever
  // engines produced the partials: the report's shape is a function of the
  // *canonical* options, which is what lets a resumed mixed-engine scan
  // byte-match an uninterrupted one under --deterministic-report.
  if (needs_thaw) result.stats.timers.add("thaw", 0.0);
  result.stats.timers.add("base", build_seconds);
  if (combinations_ > 0) {
    result.stats.timers.add("convolution", convolution_seconds_);
    result.stats.timers.add("verification", verification_seconds_);
  }

  if (best_) {
    // bound[k]: the size-k ranks ordered before the witness F — in
    // depth-first order a lexicographic-vector prefix of every size, in
    // largest-first order all larger sizes and F's own rank prefix.
    const std::vector<int>& F = best_->combo;
    const int f = static_cast<int>(F.size());
    const bool largest = options_.search_order == SearchOrder::kLargestFirst;
    std::vector<std::uint64_t> bound(static_cast<std::size_t>(options_.order) +
                                     1);
    std::uint64_t before = 0;
    for (int k = 1; k <= options_.order && k <= N; ++k) {
      std::uint64_t& b = bound[static_cast<std::size_t>(k)];
      if (!largest)
        b = count_lex_before(N, k, F);
      else if (k > f)
        b = binomial(N, k);
      else if (k == f)
        b = combination_rank(N, F);
      before += b;
    }
    // Shards are disjoint, so the checked combinations ordered before F
    // are the covered ranges' overlaps with the bound prefixes.
    std::uint64_t checked_before = 0;
    for (const Covered& c : covered_) {
      const std::uint64_t end =
          std::min(c.end, bound[static_cast<std::size_t>(c.k)]);
      if (end > c.begin) checked_before += end - c.begin;
    }
    if (checked_before < before) {
      // A shard ordered before F stopped early (the deadline, or an
      // external cancel): a walk in the search order would not have
      // reached F, so F is not known to be the canonical witness.  The run
      // timed out, and the counters stay the visited ones.
      result.timed_out = true;
    } else {
      result.stats.combinations = before + 1;
      result.stats.qinfo_entries = qinfo_.count_ranks_below(bound);
      result.secure = false;
      result.counterexample = failure_counterexample();
    }
  } else if (combinations_ < count_combinations_up_to(N, options_.order)) {
    result.timed_out = true;
  } else if (options_.union_check && options_.notion != Notion::kProbing) {
    // The set-level pass over the merged store — sorted_combos() restores
    // the serial iteration order, so the union witness is completion-order
    // independent too.  A bare Checker hosts the pass: union_violates is
    // pure mask arithmetic, so no backend is prepared and the frozen forest
    // is never thawed — finalizing a drained scan costs checkpoint I/O plus
    // this loop, nothing engine-shaped.
    const Checker checker(basis_->vars, options_.notion,
                          options_.joint_share_count);
    ScopedPhase phase(result.stats.timers, "union");
    obs::Span span("union");
    union_pass(*basis_, checker, qinfo_, cancel, result);
  }
  return result;
}

}  // namespace sani::verify
