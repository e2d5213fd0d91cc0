#include "verify/report.h"

#include <array>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "verify/checker.h"

namespace sani::verify {

using obs::json_escape;

namespace {

// Deterministic-report support: a copy of `result` with every wall-clock
// field zeroed and every strategy-variant counter reset, so two runs that
// verified the same input identically render byte-identical reports
// regardless of machine speed, cache temperature, scheduling, or whether an
// incremental scan replayed part of the work.  What stays is precisely what
// the verification *semantics* determine: verdict, witness, observable and
// combination counts.  What goes is what the execution *strategy* shapes:
// durations, cache traffic, diagram and arena accounting, per-worker
// load split, and the incremental replay stats (an incremental run's
// deterministic report is byte-identical to a cold one by construction —
// that is the correctness gate; the replay counters remain visible through
// --metrics-out and the non-deterministic JSON report).  Phase names are
// preserved (at 0.0) so the report's *shape* still matches the cold run.
VerifyResult strip_timing(const VerifyResult& result) {
  VerifyResult out = result;
  out.stats.thaw_seconds = 0.0;
  out.stats.parallel.cancel_latency = 0.0;
  out.stats.parallel.shards_stolen = 0;
  out.stats.parallel.shards_skipped = 0;
  out.stats.parallel.shards_abandoned = 0;
  for (WorkerStats& w : out.stats.parallel.workers) {
    w.thaw_seconds = 0.0;
    w.shards = 0;
    w.combinations = 0;
    w.coefficients = 0;
    w.peak_nodes = 0;
  }
  out.stats.coefficients = 0;
  out.stats.region_cache = {};
  out.stats.qinfo_peak_bytes = 0;
  out.stats.dd_cache_hits = 0;
  out.stats.dd_cache_misses = 0;
  out.stats.dd_peak_nodes = 0;
  out.stats.dd_gc_runs = 0;
  out.stats.dd_cache_survived = 0;
  out.stats.dd_arena_bytes = 0;
  out.stats.arena_convolutions = 0;
  out.stats.arena_grows = 0;
  out.stats.arena_peak_bytes = 0;
  out.stats.incremental = {};
  PhaseTimers zeroed;
  for (std::size_t i = 0; i < result.stats.timers.size(); ++i)
    zeroed.add(result.stats.timers.id(i), 0.0);
  out.stats.timers = zeroed;
  return out;
}

}  // namespace

std::string decode_alpha(const circuit::Gadget& gadget,
                         const circuit::VarMap& vars, const Mask& alpha) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  alpha.for_each_bit([&](int v) {
    if (!first) os << ", ";
    first = false;
    os << gadget.netlist.node(vars.var_to_wire[v]).name;
  });
  os << '}';
  return os.str();
}

std::string summarize(const std::string& gadget_name,
                      const VerifyOptions& options, const VerifyResult& result,
                      double seconds) {
  if (options.deterministic_report) seconds = 0.0;
  std::ostringstream os;
  os << gadget_name;
  if (result.timed_out)
    os << ": timed out";
  else if (result.secure)
    os << " is " << options.order << "-" << notion_name(options.notion);
  else
    os << " is NOT " << options.order << "-" << notion_name(options.notion);
  os << " (engine " << engine_name(resolve_engine(options.engine)) << ", "
     << result.stats.num_observables << " observables, "
     << result.stats.combinations << " combinations, ";
  // Resolved worker count (after --jobs 0 expands to the hardware
  // concurrency); `--jobs 1` runs leave parallel.jobs at 0.
  if (result.stats.parallel.jobs > 0)
    os << result.stats.parallel.jobs << " jobs, ";
  os << seconds * 1e3 << " ms)";
  return os.str();
}

namespace {

/// Sets each (name, value) instrument through `handles`, which the first
/// call fills from the names (a registry lookup takes the mutex and builds
/// a name string; later exports only store).
template <typename Instrument, typename Value, std::size_t N>
void set_all(std::vector<Instrument*>& handles,
             Instrument& (obs::Metrics::*lookup)(const std::string&),
             const std::pair<const char*, Value> (&items)[N]) {
  if (handles.empty())
    for (const auto& [name, value] : items)
      handles.push_back(&(obs::Metrics::instance().*lookup)(name));
  for (std::size_t i = 0; i < N; ++i) handles[i]->set(items[i].second);
}

}  // namespace

void export_metrics(const VerifyOptions& options, const VerifyResult& result,
                    double seconds) {
  const VerifyStats& s = result.stats;
  const std::uint64_t lookups = s.dd_cache_hits + s.dd_cache_misses;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"verify.combinations", s.combinations},
      {"verify.coefficients", s.coefficients},
      {"verify.observables", s.num_observables},
      {"verify.order", static_cast<std::uint64_t>(options.order)},
      {"verify.secure", result.secure ? 1 : 0},
      {"verify.timed_out", result.timed_out ? 1 : 0},
      {"memo.region.hits", s.region_cache.hits},
      {"memo.region.misses", s.region_cache.misses},
      {"qinfo.entries", s.qinfo_entries},
      {"qinfo.peak_bytes", s.qinfo_peak_bytes},
      {"frozen.nodes", s.frozen_nodes},
      {"frozen.bytes", s.frozen_bytes},
      {"dd.cache_hits", s.dd_cache_hits},
      {"dd.cache_misses", s.dd_cache_misses},
      {"dd.peak_nodes", s.dd_peak_nodes},
      {"dd.gc_runs", s.dd_gc_runs},
      {"dd.cache_survived", s.dd_cache_survived},
      {"dd.arena_bytes", s.dd_arena_bytes},
      {"parallel.jobs", static_cast<std::uint64_t>(
                            s.parallel.jobs > 0 ? s.parallel.jobs : 1)},
      {"parallel.shards", s.parallel.shards_total},
      {"parallel.shards_stolen", s.parallel.shards_stolen},
      {"parallel.shards_skipped", s.parallel.shards_skipped},
      {"parallel.shards_abandoned", s.parallel.shards_abandoned},
      {"arena.convolutions", s.arena_convolutions},
      {"arena.grows", s.arena_grows},
      {"arena.peak_bytes", s.arena_peak_bytes},
  };
  const std::pair<const char*, double> gauges[] = {
      {"verify.seconds", seconds},
      {"verify.combinations_per_sec",
       seconds > 0 ? static_cast<double>(s.combinations) / seconds : 0.0},
      {"dd.cache_hit_rate", lookups ? static_cast<double>(s.dd_cache_hits) /
                                          static_cast<double>(lookups)
                                    : 0.0},
      {"dd.thaw_seconds", s.thaw_seconds},
      {"parallel.cancel_latency", s.parallel.cancel_latency},
  };
  // Resolved once per process; the incremental ones only by the first
  // incremental run and each phase's by its first export, so a cold run's
  // export has the keys it always had.
  static std::vector<obs::Counter*> counter_handles, incremental_handles;
  static std::vector<obs::Gauge*> gauge_handles;
  static std::array<obs::Gauge*, 256> phase_handles{};
  static std::mutex resolve_mu;
  std::lock_guard<std::mutex> lk(resolve_mu);
  set_all(counter_handles, &obs::Metrics::counter, counters);
  set_all(gauge_handles, &obs::Metrics::gauge, gauges);
  if (s.incremental.active) {
    const std::pair<const char*, std::uint64_t> incremental[] = {
        {"incremental.cones_total", s.incremental.cones_total},
        {"incremental.cones_reused", s.incremental.cones_reused},
        {"incremental.combinations_skipped",
         s.incremental.combinations_skipped},
        {"incremental.combinations_rechecked",
         s.incremental.combinations_rechecked},
    };
    set_all(incremental_handles, &obs::Metrics::counter, incremental);
  }
  for (std::size_t i = 0; i < s.timers.size(); ++i) {
    obs::Gauge*& g = phase_handles[static_cast<std::size_t>(s.timers.id(i))];
    if (!g)
      g = &obs::Metrics::instance().gauge(
          "phase." + std::string(s.timers.name(i)) + ".seconds");
    g->set(s.timers.seconds(i));
  }
}

std::string json_report(const std::string& gadget_name,
                        const VerifyOptions& options,
                        const VerifyResult& result_in, double seconds) {
  const VerifyResult result =
      options.deterministic_report ? strip_timing(result_in) : result_in;
  if (options.deterministic_report) seconds = 0.0;
  std::ostringstream os;
  os << "{";
  os << "\"gadget\":\"" << json_escape(gadget_name) << "\",";
  os << "\"notion\":\"" << notion_name(options.notion) << "\",";
  os << "\"order\":" << options.order << ",";
  os << "\"engine\":\"" << engine_name(resolve_engine(options.engine))
     << "\",";
  os << "\"robust\":" << (options.probes.glitch_robust ? "true" : "false")
     << ",";
  os << "\"secure\":" << (result.secure ? "true" : "false") << ",";
  os << "\"timed_out\":" << (result.timed_out ? "true" : "false") << ",";
  os << "\"observables\":" << result.stats.num_observables << ",";
  os << "\"combinations\":" << result.stats.combinations << ",";
  os << "\"coefficients\":" << result.stats.coefficients << ",";
  os << "\"caches\":{";
  os << "\"region_cache\":{\"hits\":" << result.stats.region_cache.hits
     << ",\"misses\":" << result.stats.region_cache.misses << "}},";
  os << "\"qinfo\":{\"entries\":" << result.stats.qinfo_entries
     << ",\"peak_bytes\":" << result.stats.qinfo_peak_bytes << "},";
  os << "\"frozen\":{\"nodes\":" << result.stats.frozen_nodes
     << ",\"bytes\":" << result.stats.frozen_bytes << "},";
  os << "\"arena\":{\"convolutions\":" << result.stats.arena_convolutions
     << ",\"grows\":" << result.stats.arena_grows
     << ",\"peak_bytes\":" << result.stats.arena_peak_bytes << "},";
  if (result.stats.incremental.active) {
    // Absent under --deterministic-report (strip_timing resets it): the
    // replay split is a property of the run's history, not of the verdict.
    const IncrementalStats& inc = result.stats.incremental;
    os << "\"incremental\":{\"cones_total\":" << inc.cones_total
       << ",\"cones_reused\":" << inc.cones_reused
       << ",\"combinations_skipped\":" << inc.combinations_skipped
       << ",\"combinations_rechecked\":" << inc.combinations_rechecked
       << "},";
  }
  {
    const std::uint64_t lookups =
        result.stats.dd_cache_hits + result.stats.dd_cache_misses;
    os << "\"dd\":{\"cache_hits\":" << result.stats.dd_cache_hits
       << ",\"cache_misses\":" << result.stats.dd_cache_misses
       << ",\"cache_hit_rate\":"
       << (lookups ? static_cast<double>(result.stats.dd_cache_hits) /
                         static_cast<double>(lookups)
                   : 0.0)
       << ",\"peak_nodes\":" << result.stats.dd_peak_nodes
       << ",\"cache_bits\":" << result.stats.dd_cache_bits
       << ",\"gc_runs\":" << result.stats.dd_gc_runs
       << ",\"cache_survived\":" << result.stats.dd_cache_survived
       << ",\"arena_bytes\":" << result.stats.dd_arena_bytes
       << ",\"thaw_seconds\":" << result.stats.thaw_seconds << "},";
  }
  os << "\"seconds\":" << seconds << ",";
  os << "\"warnings\":[";
  for (std::size_t i = 0; i < result.warnings.size(); ++i) {
    if (i) os << ',';
    os << "\"" << json_escape(result.warnings[i]) << "\"";
  }
  os << "],";
  os << "\"jobs\":"
     << (result.stats.parallel.jobs > 0 ? result.stats.parallel.jobs : 1)
     << ",";
  if (result.stats.parallel.jobs > 0) {
    const ParallelStats& p = result.stats.parallel;
    os << "\"parallel\":{";
    os << "\"shared_basis\":" << (p.shared_basis ? "true" : "false") << ",";
    os << "\"replays\":" << p.replays << ",";
    os << "\"shards\":" << p.shards_total << ",";
    os << "\"shards_stolen\":" << p.shards_stolen << ",";
    os << "\"shards_skipped\":" << p.shards_skipped << ",";
    os << "\"shards_abandoned\":" << p.shards_abandoned << ",";
    os << "\"cancel_latency\":" << p.cancel_latency << ",";
    os << "\"workers\":[";
    for (std::size_t w = 0; w < p.workers.size(); ++w) {
      if (w) os << ',';
      os << "{\"shards\":" << p.workers[w].shards
         << ",\"combinations\":" << p.workers[w].combinations
         << ",\"coefficients\":" << p.workers[w].coefficients
         << ",\"replays\":" << p.workers[w].replays
         << ",\"thaw_seconds\":" << p.workers[w].thaw_seconds
         << ",\"peak_nodes\":" << p.workers[w].peak_nodes << "}";
    }
    os << "]},";
  }
  os << "\"phases\":{";
  const PhaseTimers& timers = result.stats.timers;
  for (std::size_t i = 0; i < timers.size(); ++i) {
    if (i) os << ',';
    os << "\"" << json_escape(std::string(timers.name(i)))
       << "\":" << timers.seconds(i);
  }
  os << "},";
  if (options.deterministic_report) {
    // The registry is process-global and volatile (store counters, timed
    // histograms, gauges from earlier runs in the same process): embedding
    // it would break warm-vs-cold byte diffs, and a daemon's registry never
    // matches a one-shot CLI's.  Emit an explicit null instead.
    os << "\"metrics\":null,";
  } else {
    export_metrics(options, result, seconds);
    os << "\"metrics\":" << obs::Metrics::instance().to_json() << ",";
  }
  os << "\"counterexample\":";
  if (result.counterexample) {
    const CounterExample& ce = *result.counterexample;
    os << "{\"observables\":[";
    for (std::size_t i = 0; i < ce.observables.size(); ++i) {
      if (i) os << ',';
      os << "\"" << json_escape(ce.observables[i]) << "\"";
    }
    os << "],\"alpha\":\"" << ce.alpha.to_string() << "\",\"reason\":\""
       << json_escape(ce.reason) << "\"}";
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

std::string detailed_report(const circuit::Gadget& gadget,
                            const circuit::VarMap& vars,
                            const VerifyOptions& options,
                            const VerifyResult& result_in) {
  const VerifyResult result =
      options.deterministic_report ? strip_timing(result_in) : result_in;
  std::ostringstream os;
  os << "gadget: " << gadget.netlist.name() << "\n";
  os << "notion: " << options.order << "-" << notion_name(options.notion)
     << "  engine: " << engine_name(resolve_engine(options.engine)) << "\n";
  os << "observables: " << result.stats.num_observables
     << "  combinations: " << result.stats.combinations
     << "  coefficients: " << result.stats.coefficients << "\n";
  os << "caches: region cache " << result.stats.region_cache.hits << " hits / "
     << result.stats.region_cache.misses << " misses\n";
  if (result.stats.qinfo_entries > 0)
    os << "union-check table: " << result.stats.qinfo_entries
       << " entries, peak " << result.stats.qinfo_peak_bytes << " bytes\n";
  if (result.stats.frozen_nodes > 0)
    os << "frozen forest: " << result.stats.frozen_nodes << " nodes, "
       << result.stats.frozen_bytes << " bytes\n";
  if (result.stats.arena_convolutions > 0)
    os << "flat arena: " << result.stats.arena_convolutions
       << " convolutions, " << result.stats.arena_grows
       << " buffer grows, peak " << result.stats.arena_peak_bytes
       << " bytes\n";
  if (result.stats.incremental.active)
    os << "incremental: " << result.stats.incremental.cones_reused << "/"
       << result.stats.incremental.cones_total << " cones reused, "
       << result.stats.incremental.combinations_skipped
       << " combinations replayed, "
       << result.stats.incremental.combinations_rechecked
       << " re-checked\n";
  if (result.stats.dd_cache_hits + result.stats.dd_cache_misses > 0) {
    os << "dd manager: " << result.stats.dd_cache_hits << " cache hits / "
       << result.stats.dd_cache_misses << " misses (2^"
       << result.stats.dd_cache_bits << " entries), peak "
       << result.stats.dd_peak_nodes << " nodes, arena "
       << result.stats.dd_arena_bytes << " bytes, thaw "
       << result.stats.thaw_seconds << " s\n";
    if (result.stats.dd_gc_runs > 0)
      os << "  gc: " << result.stats.dd_gc_runs << " collections, "
         << result.stats.dd_cache_survived
         << " computed-table entries survived them\n";
  }
  for (std::size_t i = 0; i < result.stats.timers.size(); ++i)
    os << "  phase " << result.stats.timers.name(i) << ": "
       << result.stats.timers.seconds(i) << " s\n";
  if (result.stats.parallel.jobs > 0) {
    const ParallelStats& p = result.stats.parallel;
    os << "parallel: " << p.jobs << " jobs (shared basis, " << p.replays
       << " replays), " << p.shards_total << " shards ("
       << p.shards_stolen << " stolen, " << p.shards_skipped << " skipped, "
       << p.shards_abandoned << " abandoned), cancel latency "
       << p.cancel_latency << " s\n";
    for (std::size_t w = 0; w < p.workers.size(); ++w)
      os << "  worker " << w << ": " << p.workers[w].shards << " shards, "
         << p.workers[w].combinations << " combinations, "
         << p.workers[w].coefficients << " coefficients, thaw "
         << p.workers[w].thaw_seconds << " s, peak "
         << p.workers[w].peak_nodes << " nodes\n";
  }
  if (result.timed_out) {
    os << "verdict: TIMED OUT\n";
    return os.str();
  }
  os << "verdict: " << (result.secure ? "SECURE" : "INSECURE") << "\n";
  if (result.counterexample) {
    const CounterExample& ce = *result.counterexample;
    os << "counterexample:\n  observables:";
    for (const auto& n : ce.observables) os << ' ' << n;
    os << "\n  witness coordinate: " << decode_alpha(gadget, vars, ce.alpha)
       << "\n  reason: " << ce.reason << "\n";
  }
  return os.str();
}

}  // namespace sani::verify
