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
                const DepTable& deps, sched::CancelToken* cancel,
                VerifyResult& result) {
  const int N = static_cast<int>(basis.size());
  const std::vector<DepTable::Run>& runs = deps.runs();
  const int top = runs.empty() ? 0 : runs.back().k;
  // The lexicographic rank of q minus its element at `skip`
  // (combination_rank's telescoped sum).
  const auto rank_without = [&](const std::vector<int>& q, std::size_t skip) {
    const int m = static_cast<int>(q.size()) - 1;
    std::uint64_t rank = 0;
    int prev = -1, i = 0;
    for (std::size_t p = 0; p < q.size(); ++p) {
      if (p == skip) continue;
      rank += binomial(N - 1 - prev, m - i) - binomial(N - q[p], m - i);
      prev = q[p];
      ++i;
    }
    return rank;
  };
  // Each observable's row role, in one flat array the tests of every Q read.
  struct Role {
    bool output;
    int share;
  };
  std::vector<Role> roles;
  roles.reserve(basis.obs.size());
  for (const ObservableInfo& o : basis.obs)
    roles.push_back({o.kind == Observable::Kind::kOutput,
                     o.output_share_index});

  struct Witness {
    std::vector<int> combo;
    Mask V;
    std::string reason;
  };
  std::optional<Witness> best;
  std::vector<Mask> prev;  // closed V of class k-1, one mask per rank
  // sub[j]: the rank of combo minus combo[j] (empty while k == 1).
  std::vector<std::uint64_t> sub;
  std::size_t closure_peak = 0;
  auto run = runs.begin();
  for (int k = 1; k <= top; ++k) {
    std::vector<int> combo(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) combo[static_cast<std::size_t>(i)] = i;
    // Each class starts at {0..k-1}, a proper extension of the previous
    // class's start: once that is not before the witness, nothing later is.
    if (best && !(combo < best->combo)) break;
    const std::uint64_t ranks = binomial(N, k);
    std::vector<Mask> cur(k < top ? ranks : 0);
    closure_peak = std::max(closure_peak,
                            (prev.capacity() + cur.capacity()) * sizeof(Mask));
    const auto rank_subs = [&] {
      if (k == 1) return;  // the empty sub-combination has no closure
      sub.resize(combo.size());
      for (std::size_t j = 0; j < combo.size(); ++j)
        sub[j] = rank_without(combo, j);
    };
    rank_subs();
    for (std::uint64_t r = 0; r < ranks; ++r) {
      if (cancel && cancel->expired()) {
        result.timed_out = true;
        cancel->acknowledge();
        result.stats.qinfo_peak_bytes += closure_peak;
        return;
      }
      while (run != runs.end() &&
             (run->k < k || (run->k == k && run->end() <= r)))
        ++run;
      const bool recorded = run != runs.end() && run->k == k && run->begin <= r;
      Mask V = recorded ? run->masks[r - run->begin] : Mask{};
      for (const std::uint64_t s : sub) V |= prev[s];
      if (!cur.empty()) cur[r] = V;
      // The witness is the lexicographic minimum over all classes; ranks
      // ascend lexicographically, so a class's first violation is its least.
      if (recorded && (!best || combo < best->combo)) {
        RowContext row;
        for (int i : combo) {
          const Role& role = roles[static_cast<std::size_t>(i)];
          row.add(role.output, role.share);
        }
        std::string reason;
        if (checker.union_violates(V, row, &reason)) {
          best = Witness{combo, V, std::move(reason)};
          if (cur.empty()) break;
        }
      }
      // When only the last element advances, every sub-combination that
      // keeps it moves up one rank and the one that drops it stays; any
      // other step re-ranks them all.
      if (combo.back() + 1 < N) {
        ++combo.back();
        for (std::size_t j = 0; j + 1 < sub.size(); ++j) ++sub[j];
      } else if (next_combination(combo, N)) {
        rank_subs();
      }
    }
    prev = std::move(cur);
  }
  result.stats.qinfo_peak_bytes += closure_peak;
  if (!best) return;
  result.secure = false;
  CounterExample ce;
  for (int i : best->combo)
    ce.observables.push_back(basis.obs[static_cast<std::size_t>(i)].name);
  ce.alpha = best->V;
  ce.reason = "set-level dependency check failed: " + best->reason;
  result.counterexample = std::move(ce);
}

ReportAssembler::ReportAssembler(std::shared_ptr<const Basis> basis,
                                 VerifyOptions options)
    : basis_(std::move(basis)), options_(std::move(options)) {
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
    covered_.push_back({part.k, part.begin, part.covered_end,
                        part.has_failure, part.fail_alpha, part.fail_reason,
                        {}});
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

  if (options_.union_check && options_.notion != Notion::kProbing)
    deps_.add_run(part.k, part.begin, std::move(part.deps));
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
  result.stats.qinfo_entries = deps_.size();
  result.stats.qinfo_peak_bytes = deps_.bytes();
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
  if (needs_thaw) result.stats.timers.add(Phase::kThaw, 0.0);
  result.stats.timers.add(Phase::kBase, build_seconds);
  if (combinations_ > 0) {
    result.stats.timers.add(Phase::kConvolution, convolution_seconds_);
    result.stats.timers.add(Phase::kVerification, verification_seconds_);
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
    for (const CheckedRun& c : covered_) {
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
      result.stats.qinfo_entries = deps_.count_ranks_below(bound);
      result.secure = false;
      result.counterexample = failure_counterexample();
    }
  } else if (combinations_ < count_combinations_up_to(N, options_.order)) {
    result.timed_out = true;
  } else if (options_.union_check && options_.notion != Notion::kProbing) {
    // The set-level pass over the merged table — its witness is the
    // lexicographically least violating Q, so it is completion-order
    // independent too.  A bare Checker hosts the pass: union_violates is
    // pure mask arithmetic, so no backend is prepared and the frozen forest
    // is never thawed — finalizing a drained scan costs checkpoint I/O plus
    // this loop, nothing engine-shaped.
    //
    // A replayed pass verdict stands in for the pass: the table is the
    // recorded one, so the verdict and the closure's peak bytes are too.
    ScopedPhase phase(result.stats.timers, Phase::kUnion);
    obs::Span span("union");
    if (replay_union_) {
      result.stats.qinfo_peak_bytes += replay_union_->closure_peak_bytes;
      union_verdict_ = *replay_union_;
      union_replayed_ = true;
    } else {
      const Checker checker(basis_->vars, options_.notion,
                            options_.joint_share_count);
      const std::uint64_t table_bytes = result.stats.qinfo_peak_bytes;
      union_pass(*basis_, checker, deps_, cancel, result);
      union_verdict_.closure_peak_bytes =
          result.stats.qinfo_peak_bytes - table_bytes;
      union_verdict_.state = result.timed_out ? UnionVerdict::State::kUnrecorded
                             : result.secure  ? UnionVerdict::State::kPassed
                                              : UnionVerdict::State::kFailed;
    }
  }
  return result;
}

}  // namespace sani::verify
