#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const std::vector<Outcome>& outcomes,
                                       double scale) {
  // Best time of each request over its repetitions (one per round), with
  // the combinations that repetition decided.
  std::map<std::size_t, const Outcome*> best;
  for (const Outcome& o : outcomes) {
    const Outcome*& b = best[o.id];
    if (!b || o.ms < b->ms) b = &o;
  }
  std::vector<double> ms;
  double busy_s = 0.0;
  double combinations = 0.0;
  for (const auto& [id, o] : best) {
    ms.push_back(o->ms);
    busy_s += o->ms * 1e-3;
    combinations += static_cast<double>(o->combinations);
  }
  const std::size_t n = ms.size();
  busy_s *= scale;
  return {
      {"setup_s", quantile(setup_s, 0.5) * scale, "s", setup_s.size()},
      {"verdict_ms_p50", quantile(ms, 0.5) * scale, "ms", n},
      {"verdict_ms_p90", quantile(ms, 0.9) * scale, "ms", n},
      {"verdicts_per_s", static_cast<double>(ms.size()) / busy_s, "1/s", n},
      {"combos_per_s", combinations / busy_s, "1/s", n},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> per_layer_metrics(const std::vector<Outcome>& outcomes,
                                      const SpanLog& log) {
  const std::size_t n = outcomes.size();
  const double per = n ? 1.0 / static_cast<double>(n) : 0.0;

  // Span self time summed per name; request-kind splits where they matter.
  std::map<std::string, double> self_ms;
  std::map<Kind, std::pair<double, std::size_t>> with_store;  // ms, count
  std::vector<double> scan_wall_ms(n, 0.0);
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    const double self = log.self_ms(static_cast<std::int32_t>(i));
    self_ms[std::string(s.name)] += self;
    if (s.name == "store.with_store") {
      auto& [ms, count] = with_store[outcomes[s.request].kind];
      ms += self;
      ++count;
    }
    if (s.name == "verify.scan" || s.name == "store.with_store" ||
        s.name == "scan.worker" || s.name == "scan.finalize")
      scan_wall_ms[s.request] += s.ms();
  }
  const auto span_mean = [&](const char* name) {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second * per;
  };
  const auto store_mean = [&](Kind k) {
    const auto it = with_store.find(k);
    return it == with_store.end()
               ? 0.0
               : ratio(it->second.first,
                       static_cast<double>(it->second.second));
  };

  double base_ms = 0, unfold_nodes = 0, verify_requests = 0;
  double base_coefficients = 0, dd_hits = 0, dd_lookups = 0, gc_runs = 0;
  double dd_bits = 0, dd_peak = 0, dd_arena = 0, thaw_ms = 0;
  double conv_s = 0, check_s = 0, union_s = 0, phases_s = 0, capacity_s = 0;
  double combinations = 0, coefficients = 0, qinfo_peak = 0;
  double region_hits = 0, region_lookups = 0, memo_hits = 0, memo_lookups = 0;
  double convolutions = 0, arena_grows = 0, arena_peak = 0;
  double shards = 0, stolen = 0, imbalance = 0, parallel_requests = 0;
  double key_ms = 0, store_requests = 0, store_hits = 0, store_lookups = 0;
  double evictions = 0, bytes_written = 0;
  double replayed = 0, inc_combinations = 0, cones_reused = 0, cones = 0;
  double rechecked = 0, scan_shards = 0, checkpoint_bytes = 0, reclaimed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    const sani::verify::VerifyStats& st = o.stats;
    const auto phase = [&st](const char* name) { return st.timers.get(name); };
    if (o.kind == Kind::kVerify) {
      ++verify_requests;
      unfold_nodes += static_cast<double>(o.unfold_nodes);
      base_coefficients += static_cast<double>(o.base_coefficients);
    } else if (o.kind != Kind::kScan) {
      // verify_with_store builds the Basis internally on a key miss; its
      // own build timer is the only view of that stage from outside.
      if (!o.store.hit) base_ms += phase("base") * 1e3;
      ++store_requests;
      key_ms += o.key_ms;
      store_hits += static_cast<double>(o.store_stats.hits);
      store_lookups +=
          static_cast<double>(o.store_stats.hits + o.store_stats.misses);
      evictions += static_cast<double>(o.store_stats.evictions);
      bytes_written += static_cast<double>(o.bytes_written);
    }
    dd_hits += static_cast<double>(st.dd_cache_hits);
    dd_lookups += static_cast<double>(st.dd_cache_hits + st.dd_cache_misses);
    gc_runs += static_cast<double>(st.dd_gc_runs);
    dd_bits = std::max(dd_bits, static_cast<double>(st.dd_cache_bits));
    dd_peak = std::max(dd_peak, static_cast<double>(st.dd_peak_nodes));
    dd_arena = std::max(dd_arena, static_cast<double>(st.dd_arena_bytes));
    thaw_ms += st.thaw_seconds * 1e3;
    conv_s += phase("convolution");
    check_s += phase("verification");
    union_s += phase("union");
    phases_s += phase("thaw") + phase("convolution") + phase("verification") +
                phase("union");
    capacity_s += o.jobs * scan_wall_ms[i] * 1e-3;
    combinations += static_cast<double>(st.combinations);
    coefficients += static_cast<double>(st.coefficients);
    qinfo_peak = std::max(qinfo_peak, static_cast<double>(st.qinfo_peak_bytes));
    region_hits += static_cast<double>(st.region_cache.hits);
    region_lookups +=
        static_cast<double>(st.region_cache.hits + st.region_cache.misses);
    memo_hits += static_cast<double>(st.prefix_memo.hits);
    memo_lookups +=
        static_cast<double>(st.prefix_memo.hits + st.prefix_memo.misses);
    convolutions += static_cast<double>(st.arena_convolutions);
    arena_grows += static_cast<double>(st.arena_grows);
    arena_peak = std::max(arena_peak, static_cast<double>(st.arena_peak_bytes));
    shards += static_cast<double>(st.parallel.shards_total);
    stolen += static_cast<double>(st.parallel.shards_stolen);
    if (!st.parallel.workers.empty()) {
      double most = 0, sum = 0;
      for (const auto& w : st.parallel.workers) {
        most = std::max(most, static_cast<double>(w.combinations));
        sum += static_cast<double>(w.combinations);
      }
      imbalance += ratio(most * st.parallel.workers.size(), sum);
      ++parallel_requests;
    }
    if (st.incremental.active) {
      replayed += static_cast<double>(st.incremental.combinations_skipped);
      inc_combinations += static_cast<double>(st.combinations);
      cones_reused += static_cast<double>(st.incremental.cones_reused);
      cones += static_cast<double>(st.incremental.cones_total);
      rechecked += static_cast<double>(st.incremental.combinations_rechecked);
    }
    scan_shards += static_cast<double>(o.worker.shards_done);
    checkpoint_bytes += static_cast<double>(o.checkpoint_bytes);
    reclaimed += static_cast<double>(o.worker.shards_reclaimed);
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  return {
      {"circuit.parse_ms", span_mean("circuit.parse"), "ms", n},
      {"circuit.unfold_ms", span_mean("circuit.unfold"), "ms", n},
      {"circuit.observables_ms", span_mean("circuit.observables"), "ms", n},
      {"circuit.unfold_nodes", ratio(unfold_nodes, verify_requests), "count",
       static_cast<std::size_t>(verify_requests)},
      {"dd.cache_bits", dd_bits, "bits", n},
      {"dd.peak_nodes", dd_peak, "count", n},
      {"dd.cache_lookups", dd_lookups * per, "count", n},
      {"dd.cache_hit_rate", ratio(dd_hits, dd_lookups), "ratio", n},
      {"dd.gc_runs", gc_runs * per, "count", n},
      {"dd.arena_mb", dd_arena / kMiB, "MB", n},
      {"dd.thaw_ms", thaw_ms * per, "ms", n},
      {"verify.basis_ms", span_mean("verify.basis") + base_ms * per, "ms", n},
      {"verify.base_coefficients", ratio(base_coefficients, verify_requests),
       "count", static_cast<std::size_t>(verify_requests)},
      {"verify.scan_ms", span_mean("verify.scan"), "ms", n},
      {"verify.convolution_s", conv_s * per, "s", n},
      {"verify.check_s", check_s * per, "s", n},
      {"verify.union_s", union_s * per, "s", n},
      {"verify.unattributed_frac", capacity_s > 0 ? 1.0 - phases_s / capacity_s
                                                  : 0.0,
       "ratio", n},
      {"verify.combinations", combinations * per, "count", n},
      {"verify.coefficients", coefficients * per, "count", n},
      {"verify.qinfo_peak_mb", qinfo_peak / kMiB, "MB", n},
      {"verify.region_cache_lookups", region_lookups * per, "count", n},
      {"verify.region_cache_hit_rate", ratio(region_hits, region_lookups),
       "ratio", n},
      {"verify.prefix_memo_lookups", memo_lookups * per, "count", n},
      {"verify.prefix_memo_hit_rate", ratio(memo_hits, memo_lookups), "ratio",
       n},
      {"verify.report_ms", span_mean("verify.report"), "ms", n},
      {"spectral.convolutions", convolutions * per, "count", n},
      {"spectral.arena_grows", arena_grows * per, "count", n},
      {"spectral.arena_peak_bytes", arena_peak, "bytes", n},
      {"sched.shards", shards * per, "count", n},
      {"sched.shards_stolen", stolen * per, "count", n},
      {"sched.imbalance", ratio(imbalance, parallel_requests), "ratio",
       static_cast<std::size_t>(parallel_requests)},
      {"store.open_ms", span_mean("store.open"), "ms", n},
      {"store.key_ms", ratio(key_ms, store_requests), "ms",
       static_cast<std::size_t>(store_requests)},
      {"store.with_store_ms.write", store_mean(Kind::kWrite), "ms",
       with_store[Kind::kWrite].second},
      {"store.with_store_ms.read", store_mean(Kind::kRead), "ms",
       with_store[Kind::kRead].second},
      {"store.with_store_ms.rename", store_mean(Kind::kRename), "ms",
       with_store[Kind::kRename].second},
      {"store.lookups", store_lookups * per, "count", n},
      {"store.hit_rate", ratio(store_hits, store_lookups), "ratio", n},
      {"store.evictions", evictions * per, "count", n},
      {"store.bytes_written", bytes_written * per, "bytes", n},
      {"incremental.replayed_frac", ratio(replayed, inc_combinations), "ratio",
       n},
      {"incremental.cones_reused_frac", ratio(cones_reused, cones), "ratio", n},
      {"incremental.rechecked", rechecked * per, "count", n},
      {"scan.plan_ms", span_mean("scan.plan"), "ms", n},
      {"scan.worker_ms", span_mean("scan.worker"), "ms", n},
      {"scan.finalize_ms", span_mean("scan.finalize"), "ms", n},
      {"scan.shards", scan_shards * per, "count", n},
      {"scan.checkpoint_bytes", checkpoint_bytes * per, "bytes", n},
      {"scan.reclaimed", reclaimed * per, "count", n},
      {"request.other_ms", span_mean("request"), "ms", n},
  };
}

std::string result_json(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string metric_table(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  for (const Metric& m : metrics)
    os << "  " << std::left << std::setw(32) << m.name << std::right
       << std::setw(16) << std::setprecision(6) << m.value << ' '
       << std::left << std::setw(6) << m.unit << " n=" << m.samples << '\n';
  return os.str();
}

}  // namespace perfbench
