#include "verify/report.h"

#include <sstream>

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
  for (const std::string& name : result.stats.timers.names())
    zeroed.add(name, 0.0);
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

void export_metrics(const VerifyOptions& options, const VerifyResult& result,
                    double seconds) {
  auto& m = obs::Metrics::instance();
  const VerifyStats& s = result.stats;
  m.counter("verify.combinations").set(s.combinations);
  m.counter("verify.coefficients").set(s.coefficients);
  m.counter("verify.observables").set(s.num_observables);
  m.counter("verify.order").set(static_cast<std::uint64_t>(options.order));
  m.gauge("verify.seconds").set(seconds);
  m.gauge("verify.combinations_per_sec")
      .set(seconds > 0 ? static_cast<double>(s.combinations) / seconds : 0.0);
  m.counter("verify.secure").set(result.secure ? 1 : 0);
  m.counter("verify.timed_out").set(result.timed_out ? 1 : 0);
  m.counter("memo.region.hits").set(s.region_cache.hits);
  m.counter("memo.region.misses").set(s.region_cache.misses);
  m.counter("qinfo.entries").set(s.qinfo_entries);
  m.counter("qinfo.peak_bytes").set(s.qinfo_peak_bytes);
  m.counter("frozen.nodes").set(s.frozen_nodes);
  m.counter("frozen.bytes").set(s.frozen_bytes);
  m.counter("dd.cache_hits").set(s.dd_cache_hits);
  m.counter("dd.cache_misses").set(s.dd_cache_misses);
  const std::uint64_t lookups = s.dd_cache_hits + s.dd_cache_misses;
  m.gauge("dd.cache_hit_rate")
      .set(lookups ? static_cast<double>(s.dd_cache_hits) /
                         static_cast<double>(lookups)
                   : 0.0);
  m.counter("dd.peak_nodes").set(s.dd_peak_nodes);
  m.counter("dd.gc_runs").set(s.dd_gc_runs);
  m.counter("dd.cache_survived").set(s.dd_cache_survived);
  m.counter("dd.arena_bytes").set(s.dd_arena_bytes);
  m.gauge("dd.thaw_seconds").set(s.thaw_seconds);
  m.counter("parallel.jobs")
      .set(static_cast<std::uint64_t>(s.parallel.jobs > 0 ? s.parallel.jobs
                                                          : 1));
  m.counter("parallel.shards").set(s.parallel.shards_total);
  m.counter("parallel.shards_stolen").set(s.parallel.shards_stolen);
  m.counter("parallel.shards_skipped").set(s.parallel.shards_skipped);
  m.counter("parallel.shards_abandoned").set(s.parallel.shards_abandoned);
  m.gauge("parallel.cancel_latency").set(s.parallel.cancel_latency);
  m.counter("arena.convolutions").set(s.arena_convolutions);
  m.counter("arena.grows").set(s.arena_grows);
  m.counter("arena.peak_bytes").set(s.arena_peak_bytes);
  if (s.incremental.active) {
    m.counter("incremental.cones_total").set(s.incremental.cones_total);
    m.counter("incremental.cones_reused").set(s.incremental.cones_reused);
    m.counter("incremental.combinations_skipped")
        .set(s.incremental.combinations_skipped);
    m.counter("incremental.combinations_rechecked")
        .set(s.incremental.combinations_rechecked);
  }
  for (const auto& name : s.timers.names())
    m.gauge("phase." + name + ".seconds").set(s.timers.get(name));
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
  const auto& names = result.stats.timers.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ',';
    os << "\"" << json_escape(names[i])
       << "\":" << result.stats.timers.get(names[i]);
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
  for (const auto& name : result.stats.timers.names())
    os << "  phase " << name << ": " << result.stats.timers.get(name) << " s\n";
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
