// sani — command-line exact verifier for probing security / (S)NI / PINI.
//
// The end-to-end tool of the paper's Fig. 5: annotated Yosys-ILANG in,
// verdict (and witness) out.  Built-in gadgets are available by name so the
// tool doubles as a benchmark runner.
//
// Usage:
//   sani verify   (--file g.ilang | --gadget dom-2) [--notion sni]
//                 [--order D] [--engine mapi] [--robust] [--joint]
//                 [--no-union] [--time-limit S] [--var-order NAME]
//                 [--jobs N]                    # 0 = all hardware threads
//   sani scan     (--file g.ilang | --gadget dom-2) --store DIR [...]
//                 # checkpointable sharded scan: plan + drain + finalize
//                 # in one shot; --plan-only stops after the manifest
//   sani scan     --resume DIR [--jobs N] [--engine E] [--lease S]
//                 # claim-and-run shards of an existing scan directory
//                 # (N cooperating processes; crash-safe)
//   sani scan     --finalize DIR   # merge checkpoints -> canonical report
//   sani scan     --status DIR     # manifest state + live fleet snapshot
//   sani top      DIR [--interval S] [--once]
//                 # auto-refreshing fleet view of a scan directory: one row
//                 # per live worker (shards, rate, rss, live DD nodes), ETA
//   sani trace-stitch DIR [--out FILE]
//                 # merge every worker's Chrome trace under DIR into one
//                 # Perfetto-loadable file sharing the scan's trace id
//   sani uniform  (--file g.ilang | --gadget ti-1)
//   sani stats    (--file g.ilang | --gadget keccak-2) [--store DIR]
//   sani emit     --gadget isw-2                  # print annotated ILANG
//   sani list                                     # built-in gadget names
//
// Exit code: 0 = secure/uniform, 1 = insecure/non-uniform, 2 = timeout,
// 64 = usage error.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "util/cli.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "store/cached_verify.h"
#include "store/scan.h"
#include "store/store.h"
#include "store/telemetry.h"
#include "verify/backends/registry.h"
#include "verify/engine.h"
#include "verify/partial.h"
#include "verify/report.h"
#include "verify/uniformity.h"

using namespace sani;

namespace {

int usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n";
  std::cerr <<
      "usage: sani "
      "<verify|scan|top|trace-stitch|uniform|stats|emit|list> [options]\n"
      "  --file PATH | --gadget NAME    circuit to analyse\n"
      "  --notion probing|ni|sni|pini   security notion (default sni)\n"
      "  --order D                      number of observations (default:\n"
      "                                 the gadget's design order, or 1)\n"
      "  --engine NAME                  implementation: auto (default;\n"
      "                                 runs direct) or one of\n"
      "                                 " +
          verify::backend_name_list() + "\n"
      "  --robust                       glitch-extended probes\n"
      "  --joint                        total share counting (paper Fig. 2)\n"
      "  --no-union                     per-row T-predicate check only\n"
      "  --time-limit S                 wall-clock budget in seconds "
      "(fractional ok)\n"
      "  --jobs N                       shard workers (default 1: runs on\n"
      "                                 the calling thread; 0 = all\n"
      "                                 hardware threads)\n"
      "  --cache-bits N                 manager computed-table size, 2^N\n"
      "                                 entries (default 18; 1..30)\n"
      "  --var-order declared|randoms-first|randoms-last|interleaved\n"
      "  --sift                         dynamic reordering after unfolding\n"
      "  --largest-first                max-size combinations first "
      "(Sec. III-C)\n"
      "  --format text|json             output format for verify\n"
      "  --trace FILE                   write a Chrome trace-event JSON of\n"
      "                                 the run (load in ui.perfetto.dev)\n"
      "  --progress                     live progress meter on stderr\n"
      "                                 (auto-silenced when not a TTY)\n"
      "  --metrics-out FILE             write the metrics registry to FILE\n"
      "  --metrics-format json|prom     metrics rendering: JSON (default)\n"
      "                                 or Prometheus text exposition 0.0.4\n"
      "                                 (also switches the `sani stats`\n"
      "                                 metrics block on stdout)\n"
      "  --journal FILE                 append structured NDJSON event\n"
      "                                 records (plan, claims, quarantines,\n"
      "                                 worker lifecycle) to FILE\n"
      "  --journal-max-bytes N          rotate the journal past N bytes\n"
      "                                 (default 8 MiB)\n"
      "  --store DIR                    content-addressed artifact store:\n"
      "                                 warm-start the prepared basis from\n"
      "                                 DIR, or build and persist it\n"
      "  --store-max-bytes N            LRU-evict the store down to N bytes\n"
      "                                 after each save (0 = unbounded)\n"
      "  --incremental                  diff-aware re-verification (needs\n"
      "                                 --store): replay verdicts for\n"
      "                                 combinations whose probe cones are\n"
      "                                 unchanged since the last run of this\n"
      "                                 gadget family; re-check only the\n"
      "                                 dirty ones.  Verdict, witness and\n"
      "                                 deterministic report are identical\n"
      "                                 to a full scan\n"
      "  --deterministic-report         zero all timing fields in reports\n"
      "                                 (byte-diffable warm vs cold runs)\n"
      "scan-only options:\n"
      "  --plan-only                    write the manifest and stop (print\n"
      "                                 the scan directory on stdout)\n"
      "  --resume DIR                   claim and run shards of scan DIR\n"
      "                                 until it drains; safe to run many\n"
      "                                 of these concurrently\n"
      "  --finalize DIR                 merge DIR's checkpoints into the\n"
      "                                 canonical report\n"
      "  --status DIR                   print DIR's manifest state\n"
      "  --lease S                      steal claims idle longer than S\n"
      "                                 seconds (default 300; 0 = steal\n"
      "                                 any leftover claim immediately)\n"
      "  --throttle S                   sleep S seconds between claiming a\n"
      "                                 shard and running it (crash tests)\n"
      "  --max-shards N                 checkpoint at most N shards, then\n"
      "                                 exit (0 = run until drained)\n"
      "  --shard-size N                 fixed combinations per shard\n"
      "  --telemetry-interval S         per-worker snapshot refresh period\n"
      "                                 (default 2; 0 disables snapshots)\n"
      "top options:\n"
      "  --interval S                   refresh period (default 2)\n"
      "  --once                         print one frame and exit (implied\n"
      "                                 when stdout is not a TTY)\n"
      "trace-stitch options:\n"
      "  --out FILE                     write the merged trace to FILE\n"
      "                                 instead of stdout\n";
  return 64;
}

circuit::Gadget load(const CliArgs& args, std::string* label) {
  if (auto f = args.value("file")) {
    *label = *f;
    return circuit::parse_ilang_file(*f);
  }
  std::string name = args.value_or("gadget", "");
  if (name.empty()) throw std::invalid_argument("need --file or --gadget");
  *label = name;
  return gadgets::by_name(name);
}

int default_order(const CliArgs& args) {
  if (auto g = args.value("gadget")) {
    try {
      return gadgets::security_level(*g);
    } catch (const std::invalid_argument&) {
    }
  }
  return 1;
}

verify::VerifyOptions options_from(const CliArgs& args) {
  verify::VerifyOptions opt;
  const std::string notion = args.value_or("notion", "sni");
  if (notion == "probing") opt.notion = verify::Notion::kProbing;
  else if (notion == "ni") opt.notion = verify::Notion::kNI;
  else if (notion == "sni") opt.notion = verify::Notion::kSNI;
  else if (notion == "pini") opt.notion = verify::Notion::kPINI;
  else throw std::invalid_argument("unknown notion '" + notion + "'");

  const std::string engine = args.value_or("engine", "auto");
  if (engine == "auto")
    opt.engine = verify::EngineKind::kAuto;
  else if (const verify::BackendInfo* info = verify::backend_by_name(engine))
    opt.engine = info->kind;
  else
    throw std::invalid_argument("unknown engine '" + engine +
                                "' (registered engines: " +
                                verify::backend_name_list() +
                                ", or 'auto' for the default)");

  opt.order = args.value_int("order", default_order(args));
  opt.sift_after_unfold = args.has("sift");
  if (args.has("largest-first"))
    opt.search_order = verify::SearchOrder::kLargestFirst;
  opt.probes.glitch_robust = args.has("robust");
  opt.joint_share_count = args.has("joint");
  opt.union_check = !args.has("no-union");
  opt.time_limit = args.value_double("time-limit", 0.0);
  opt.jobs = args.value_int("jobs", 1);
  if (opt.jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
  opt.shard_size =
      static_cast<std::uint64_t>(args.value_int("shard-size", 0));
  opt.cache_bits = args.value_int("cache-bits", opt.cache_bits);
  if (opt.cache_bits < 1 || opt.cache_bits > 30)
    throw std::invalid_argument("--cache-bits must be in [1, 30]");

  const std::string vo = args.value_or("var-order", "declared");
  if (vo == "declared") opt.var_order = circuit::VarOrder::kDeclared;
  else if (vo == "randoms-first")
    opt.var_order = circuit::VarOrder::kRandomsFirst;
  else if (vo == "randoms-last")
    opt.var_order = circuit::VarOrder::kRandomsLast;
  else if (vo == "interleaved")
    opt.var_order = circuit::VarOrder::kInterleaved;
  else throw std::invalid_argument("unknown var-order '" + vo + "'");

  opt.deterministic_report = args.has("deterministic-report");
  opt.incremental = args.has("incremental");
  if (opt.incremental && !args.value("store"))
    throw std::invalid_argument("--incremental requires --store DIR");
  return opt;
}

/// --journal / --journal-max-bytes.  `echo` additionally mirrors every
/// record to stderr as the classic one-line operator messages, so commands
/// that used to print ad-hoc status lines keep doing so through the
/// journal.
void configure_journal(const CliArgs& args, bool echo) {
  obs::Journal::Options jopts;
  jopts.path = args.value_or("journal", "");
  if (auto cap = args.value("journal-max-bytes"))
    jopts.max_bytes = std::stoull(*cap);
  jopts.echo_stderr = echo;
  obs::Journal::instance().configure(jopts);
}

/// --metrics-format: "json" (default) or "prom".
bool prom_metrics(const CliArgs& args) {
  const std::string fmt = args.value_or("metrics-format", "json");
  if (fmt == "prom") return true;
  if (fmt == "json") return false;
  throw std::invalid_argument("unknown metrics format '" + fmt +
                              "' (expected json or prom)");
}

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30))
    std::snprintf(buf, sizeof buf, "%.1f GiB",
                  static_cast<double>(bytes) / static_cast<double>(1ull << 30));
  else if (bytes >= (1ull << 20))
    std::snprintf(buf, sizeof buf, "%.1f MiB",
                  static_cast<double>(bytes) / static_cast<double>(1ull << 20));
  else if (bytes >= (1ull << 10))
    std::snprintf(buf, sizeof buf, "%.1f KiB",
                  static_cast<double>(bytes) / static_cast<double>(1ull << 10));
  else
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  return buf;
}

std::string human_eta(double seconds) {
  if (seconds < 0) return "unknown";
  if (seconds >= 3600) return fmt1(seconds / 3600) + "h";
  if (seconds >= 60) return fmt1(seconds / 60) + "m";
  return fmt1(seconds) + "s";
}

/// In-flight lease ages (claimed shards, from claim-file mtimes): the
/// at-a-glance answer to "is some worker sitting on a stale claim?".
void render_leases(std::ostream& os, const store::ScanDir::Status& st) {
  if (st.claim_ages.empty()) return;
  os << "  leases:";
  for (const auto& ca : st.claim_ages)
    os << " shard " << ca.index << " (" << fmt1(ca.age_seconds) << "s)";
  os << "; oldest " << fmt1(st.oldest_claim_age) << "s\n";
}

/// The live-fleet block shared by `sani top`, `scan --status` and
/// `stats --scan`: an aggregate line (rate, rss, DD nodes, ETA) plus one
/// row per worker snapshot.  Prints nothing for pre-telemetry scan dirs.
void render_fleet(std::ostream& os, const std::string& dir,
                  std::uint64_t combinations_remaining) {
  const auto snaps = store::read_worker_snapshots(dir);
  if (snaps.empty()) return;
  const store::FleetStatus fleet =
      store::aggregate_fleet(snaps, combinations_remaining);
  os << "  workers: " << fleet.live_workers << " live, "
     << fleet.stale_workers << " stale; " << fmt1(fleet.rate)
     << " comb/s, rss " << human_bytes(fleet.rss_bytes) << ", "
     << static_cast<std::uint64_t>(fleet.live_nodes)
     << " live nodes; ETA " << human_eta(fleet.eta_seconds) << "\n";
  for (const auto& s : snaps) {
    const bool stale = s.age_seconds > 15.0;
    os << "    pid " << s.pid << "@" << s.host << (stale ? " [stale]" : "")
       << ": " << s.shards_done << " done / " << s.shards_claimed
       << " claimed, " << s.combinations << " comb @ " << fmt1(s.rate)
       << "/s, rss " << human_bytes(s.rss_bytes) << ", nodes "
       << static_cast<std::uint64_t>(s.live_nodes) << ", up "
       << fmt1(s.uptime_seconds) << "s, age " << fmt1(s.age_seconds)
       << "s (" << s.engine << ")\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  CliArgs args(argc - 1, argv + 1);

  try {
    // `scan` routes its operator one-liners through the journal's stderr
    // echo (structured and human-readable stay in sync); every other
    // command journals only when --journal is passed.
    configure_journal(args, /*echo=*/cmd == "scan");

    if (cmd == "list") {
      for (const auto& name : gadgets::all_names()) std::cout << name << "\n";
      return 0;
    }
    if (cmd == "top") {
      std::string dir = args.value_or("scan", "");
      if (dir.empty() && !args.positionals().empty())
        dir = args.positionals().front();
      if (dir.empty()) return usage("top needs a scan directory");
      const double interval = args.value_double("interval", 2.0);
      const bool tty = ::isatty(STDOUT_FILENO) != 0;
      const bool once = args.has("once") || !tty;
      for (;;) {
        // Reopen per frame: the manifest is immutable but claims,
        // checkpoints and snapshots all move underneath us.
        const store::ScanDir scan = store::ScanDir::open(dir);
        const store::ScanDir::Status st = scan.status();
        const store::ScanManifest& man = scan.manifest();
        const std::uint64_t total = man.total_combinations();
        const std::uint64_t remaining =
            st.combinations_done < total ? total - st.combinations_done : 0;
        std::ostringstream frame;
        frame << man.label
              << (man.trace_id.empty() ? std::string()
                                       : " [job " + man.trace_id + "]")
              << ": " << st.done << "/" << scan.shard_count()
              << " shards done, " << st.claimed << " claimed, " << st.planned
              << " unclaimed; " << st.combinations_done << "/" << total
              << " combinations\n";
        render_leases(frame, st);
        render_fleet(frame, dir, remaining);
        if (!once) std::cout << "\x1b[H\x1b[2J";  // home + clear-to-end
        std::cout << frame.str() << std::flush;
        if (once) return 0;
        if (st.done == scan.shard_count()) {
          std::cout << "scan drained\n";
          return 0;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      }
    }
    if (cmd == "trace-stitch") {
      std::string dir = args.value_or("scan", "");
      if (dir.empty() && !args.positionals().empty())
        dir = args.positionals().front();
      if (dir.empty()) return usage("trace-stitch needs a scan directory");
      std::string trace_id;
      const std::string merged = store::stitch_traces(dir, &trace_id);
      const std::string out_path = args.value_or("out", "");
      if (out_path.empty()) {
        std::cout << merged;
        return 0;
      }
      std::ofstream out(out_path, std::ios::binary);
      out << merged;
      if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
      }
      std::cerr << "trace-stitch: wrote " << out_path
                << (trace_id.empty() ? std::string()
                                     : " (job " + trace_id + ")")
                << "\n";
      return 0;
    }

    std::string label;
    if (cmd == "emit") {
      circuit::Gadget g = load(args, &label);
      std::cout << circuit::write_ilang_string(g);
      return 0;
    }
    if (cmd == "stats") {
      // `sani stats --scan DIR` reports a scan directory's manifest state
      // instead of gadget/diagram stats: shard progress, in-flight claims,
      // reclaims and checkpoint weight, mirrored into scan.* metrics.
      if (auto scan_path = args.value("scan")) {
        const store::ScanDir scan = store::ScanDir::open(*scan_path);
        const store::ScanDir::Status st = scan.status();
        const store::ScanManifest& man = scan.manifest();
        std::cout << man.label << ": scan of " << man.num_observables
                  << " observables at order " << man.options.order << ", "
                  << man.total_combinations() << " combinations over "
                  << scan.shard_count() << " shards\n";
        std::cout << "  shards: " << st.done << " done, " << st.claimed
                  << " claimed, " << st.planned << " unclaimed; "
                  << st.reclaims << " reclaims\n";
        std::cout << "  checkpoints: " << st.checkpoint_bytes << " bytes, "
                  << st.combinations_done << " combinations covered\n";
        render_leases(std::cout, st);
        const std::uint64_t total = man.total_combinations();
        render_fleet(std::cout, *scan_path,
                     st.combinations_done < total
                         ? total - st.combinations_done
                         : 0);
        auto& metrics = obs::Metrics::instance();
        metrics.counter("scan.shards_planned")
            .set(static_cast<std::uint64_t>(scan.shard_count()));
        metrics.counter("scan.shards_done").set(st.done);
        metrics.counter("scan.shards_claimed").set(st.claimed);
        metrics.counter("scan.shards_reclaimed").set(st.reclaims);
        metrics.counter("scan.checkpoint_bytes").set(st.checkpoint_bytes);
        metrics.counter("scan.combinations_done").set(st.combinations_done);
        metrics.gauge("scan.oldest_claim_age").set(st.oldest_claim_age);
        if (prom_metrics(args))
          std::cout << metrics.dump_prometheus();
        else
          std::cout << "  metrics:\n" << metrics.to_text("    ");
        return 0;
      }
      circuit::Gadget g = load(args, &label);
      circuit::NetlistStats s = g.netlist.stats();
      std::cout << label << ": " << s.num_inputs << " inputs ("
                << g.spec.secrets.size() << " secrets x "
                << g.spec.shares_per_secret() << " shares, "
                << g.spec.randoms.size() << " randoms, "
                << g.spec.publics.size() << " publics), " << s.num_gates
                << " gates (" << s.num_nonlinear << " nonlinear, "
                << s.num_registers << " registers), depth " << s.depth
                << ", " << g.spec.num_output_shares() << " output shares\n";
      // Diagram-side stats: unfold once and report what the manager saw.
      const int cache_bits = args.value_int("cache-bits", 18);
      if (cache_bits < 1 || cache_bits > 30)
        throw std::invalid_argument("--cache-bits must be in [1, 30]");
      circuit::Unfolded u = circuit::unfold(g, cache_bits);
      const dd::ManagerStats m = u.manager->stats();
      const std::uint64_t lookups = m.cache_hits + m.cache_misses;
      const double hit_rate =
          lookups ? static_cast<double>(m.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
      std::cout << "  unfolding: " << circuit::unfolding_size(u)
                << " diagram nodes over " << u.vars.num_vars
                << " variables; manager peak " << m.peak_nodes
                << " nodes, op-cache hit rate " << hit_rate << " ("
                << m.cache_hits << " hits / " << m.cache_misses
                << " misses), " << m.gc_runs << " gc runs\n";
      const std::size_t live = u.manager->live_node_count();
      std::cout << "  memory: computed table 2^" << u.manager->cache_bits()
                << " entries (" << u.manager->cache_bytes()
                << " bytes), node arena " << u.manager->arena_bytes()
                << " bytes";
      if (live > 0)
        std::cout << " (" << u.manager->arena_bytes() / live
                  << " B/live node, " << dd::Manager::kHotBytesPerNode
                  << " hot)";
      std::cout << "; " << m.cache_scrubbed << " cache entries scrubbed / "
                << m.cache_survived << " survived across gc\n";
      std::cout << "  op cache:";
      bool any_op = false;
      for (std::size_t i = 0; i < dd::kNumOps; ++i) {
        const std::uint64_t total = m.op_hits[i] + m.op_misses[i];
        if (total == 0) continue;
        any_op = true;
        std::cout << (any_op ? " " : "") << dd::op_name(static_cast<dd::Op>(i))
                  << "=" << m.op_hits[i] << "/" << total;
      }
      if (!any_op) std::cout << " (no lookups)";
      std::cout << "\n";
      // Store-side stats: open the artifact store (read-only in effect) and
      // report its occupancy; the gauges land in the metrics block below.
      if (auto store_dir = args.value("store")) {
        store::ArtifactStore::Options store_opt;
        store_opt.dir = *store_dir;
        store::ArtifactStore artifacts(store_opt);
        const store::ArtifactStore::Stats st = artifacts.stats();
        std::cout << "  store: " << st.objects << " objects, "
                  << st.total_bytes << " bytes; this process: hits="
                  << st.hits << " misses=" << st.misses
                  << " evictions=" << st.evictions
                  << " quarantined=" << st.quarantined << "\n";
      }
      // The same numbers through the metrics registry: one name per line,
      // sorted — the stable, machine-greppable order tests assert on.
      auto& metrics = obs::Metrics::instance();
      metrics.counter("circuit.gates")
          .set(static_cast<std::uint64_t>(s.num_gates));
      metrics.counter("circuit.inputs")
          .set(static_cast<std::uint64_t>(s.num_inputs));
      metrics.counter("circuit.depth")
          .set(static_cast<std::uint64_t>(s.depth));
      metrics.counter("circuit.output_shares")
          .set(static_cast<std::uint64_t>(g.spec.num_output_shares()));
      metrics.counter("dd.nodes").set(circuit::unfolding_size(u));
      metrics.counter("dd.vars")
          .set(static_cast<std::uint64_t>(u.vars.num_vars));
      // A gauge, not a counter: the DD manager publishes the same name at
      // gc boundaries (src/dd/manager.cpp) and the two kinds share one
      // rendered namespace.
      metrics.gauge("dd.live_nodes").set(static_cast<double>(live));
      metrics.counter("dd.peak_nodes").set(m.peak_nodes);
      metrics.counter("dd.cache_hits").set(m.cache_hits);
      metrics.counter("dd.cache_misses").set(m.cache_misses);
      metrics.gauge("dd.cache_hit_rate").set(hit_rate);
      metrics.counter("dd.gc_runs").set(m.gc_runs);
      metrics.counter("dd.arena_bytes").set(u.manager->arena_bytes());
      metrics.counter("dd.cache_bytes").set(u.manager->cache_bytes());
      if (prom_metrics(args))
        std::cout << metrics.dump_prometheus();
      else
        std::cout << "  metrics:\n" << metrics.to_text("    ");
      return 0;
    }
    if (cmd == "uniform") {
      circuit::Gadget g = load(args, &label);
      verify::UniformityResult r = verify::check_uniformity(g);
      if (r.uniform) {
        std::cout << label << ": output sharing is uniform ("
                  << r.combinations_checked << " combinations)\n";
        return 0;
      }
      std::cout << label << ": output sharing is NOT uniform; witness:";
      for (const auto& s : r.witness_shares) std::cout << ' ' << s;
      std::cout << "\n";
      return 1;
    }
    if (cmd == "verify") {
      const std::string trace_path = args.value_or("trace", "");
      const std::string metrics_path = args.value_or("metrics-out", "");
      const bool json_format = args.value_or("format", "text") == "json";

      circuit::Gadget g = load(args, &label);
      verify::VerifyOptions opt = options_from(args);

      // Histogram sampling needs clock reads per combination, so it only
      // runs when an export will surface the data.  A deterministic JSON
      // report carries no metrics object, so it doesn't count as an export
      // by itself.
      if (!metrics_path.empty() || (json_format && !opt.deterministic_report))
        obs::Metrics::instance().enable();
      if (!trace_path.empty()) obs::Tracer::instance().start();

      obs::Progress::Options prog_options;
      prog_options.use_stderr = obs::Progress::stderr_is_tty();
      obs::Progress progress(prog_options);
      if (args.has("progress")) opt.progress = &progress;

      Stopwatch watch;
      verify::VerifyResult r;
      if (auto store_dir = args.value("store")) {
        store::ArtifactStore::Options store_opt;
        store_opt.dir = *store_dir;
        if (auto cap = args.value("store-max-bytes"))
          store_opt.max_bytes = std::stoull(*cap);
        store::ArtifactStore artifacts(store_opt);
        store::StoreOutcome outcome;
        r = store::verify_with_store(g, opt, artifacts, &outcome);
        std::cerr << "store: " << (outcome.hit ? "hit" : "miss")
                  << (outcome.saved ? " (saved)" : "") << " key "
                  << outcome.key << "\n";
        if (opt.incremental)
          std::cerr << "incremental: "
                    << (outcome.summary_hit ? "seeded from prior summary"
                                            : "no prior summary (cold scan)")
                    << (outcome.summary_saved ? "; summary saved" : "")
                    << "\n";
        const store::ArtifactStore::Stats st = artifacts.stats();
        std::cerr << "store stats: hits=" << st.hits
                  << " misses=" << st.misses
                  << " evictions=" << st.evictions
                  << " quarantined=" << st.quarantined
                  << " objects=" << st.objects
                  << " bytes=" << st.total_bytes << "\n";
      } else {
        r = verify::verify(g, opt);
      }
      const double seconds = watch.seconds();
      for (const auto& w : r.warnings) std::cerr << "warning: " << w << "\n";
      if (json_format) {
        std::cout << verify::json_report(label, opt, r, seconds) << "\n";
      } else {
        std::cout << verify::summarize(label, opt, r, seconds) << "\n";
        if (!r.secure && r.counterexample) {
          circuit::Unfolded u =
              circuit::unfold(g, opt.cache_bits, opt.var_order);
          std::cout << verify::detailed_report(g, u.vars, opt, r);
        }
      }
      if (!trace_path.empty()) {
        obs::Tracer& tracer = obs::Tracer::instance();
        tracer.stop();
        if (!tracer.write_json(trace_path))
          std::cerr << "warning: cannot write trace to " << trace_path << "\n";
        else if (tracer.dropped() > 0)
          std::cerr << "warning: trace ring wrapped, " << tracer.dropped()
                    << " events dropped\n";
      }
      if (!metrics_path.empty()) {
        verify::export_metrics(opt, r, seconds);
        std::ofstream out(metrics_path);
        if (prom_metrics(args))
          out << obs::Metrics::instance().dump_prometheus();
        else
          out << obs::Metrics::instance().to_json() << "\n";
        if (!out)
          std::cerr << "warning: cannot write metrics to " << metrics_path
                    << "\n";
      }
      return r.timed_out ? 2 : (r.secure ? 0 : 1);
    }
    if (cmd == "scan") {
      const bool json_format = args.value_or("format", "text") == "json";

      // The artifact store a scan directory belongs to: an explicit --store
      // wins; otherwise derive it from the canonical <store>/scans/<key>
      // layout, so `sani scan --resume DIR` needs no extra flags.
      const auto store_root_for =
          [&args](const std::string& dir) -> std::optional<std::string> {
        if (auto s = args.value("store")) return *s;
        const std::filesystem::path parent =
            std::filesystem::absolute(dir).parent_path();
        if (parent.filename() == "scans")
          return parent.parent_path().string();
        return std::nullopt;
      };
      const auto open_store = [&args](const std::optional<std::string>& root)
          -> std::unique_ptr<store::ArtifactStore> {
        if (!root) return nullptr;
        store::ArtifactStore::Options store_opt;
        store_opt.dir = *root;
        if (auto cap = args.value("store-max-bytes"))
          store_opt.max_bytes = std::stoull(*cap);
        return std::make_unique<store::ArtifactStore>(store_opt);
      };
      const auto worker_options_from = [&args]() {
        store::WorkerOptions wo;
        wo.jobs = args.value_int("jobs", 1);
        if (wo.jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
        if (wo.jobs == 0)
          wo.jobs = static_cast<int>(std::thread::hardware_concurrency());
        wo.lease_seconds = args.value_double("lease", 300.0);
        wo.throttle_seconds = args.value_double("throttle", 0.0);
        wo.max_shards =
            static_cast<std::uint64_t>(args.value_int("max-shards", 0));
        wo.telemetry_interval_seconds =
            args.value_double("telemetry-interval", 2.0);
        if (auto e = args.value("engine")) {
          if (*e == "auto")
            wo.engine = verify::EngineKind::kAuto;  // = manifest's engine
          else if (const verify::BackendInfo* info =
                       verify::backend_by_name(*e))
            wo.engine = info->kind;
          else
            throw std::invalid_argument("unknown engine '" + *e + "'");
        }
        return wo;
      };
      // --trace in scan mode: the worker's Chrome trace carries the scan's
      // shared trace id and this process's identity, and always lands in
      // telemetry/trace-<host>-<pid>.json so `sani trace-stitch` can merge
      // the fleet; an explicit FILE gets a copy.
      const bool tracing = args.has("trace");
      const std::string trace_out = args.value_or("trace", "");
      const auto start_trace = [&](const store::ScanDir& scan) {
        if (!tracing) return;
        obs::Tracer& tracer = obs::Tracer::instance();
        tracer.set_trace_id(scan.manifest().trace_id);
        tracer.set_process_label("sani scan worker " +
                                 std::to_string(::getpid()));
        tracer.start();
      };
      const auto finish_trace = [&](const std::string& dir) {
        if (!tracing) return;
        obs::Tracer& tracer = obs::Tracer::instance();
        tracer.stop();
        std::error_code ec;
        std::filesystem::create_directories(store::telemetry_dir(dir), ec);
        const std::string worker_path = store::worker_trace_path(dir);
        if (!tracer.write_json(worker_path))
          std::cerr << "warning: cannot write trace to " << worker_path
                    << "\n";
        if (!trace_out.empty() && !tracer.write_json(trace_out))
          std::cerr << "warning: cannot write trace to " << trace_out << "\n";
        if (tracer.dropped() > 0)
          std::cerr << "warning: trace ring wrapped, " << tracer.dropped()
                    << " events dropped\n";
      };
      // The finalized report renders under the manifest's canonical options
      // (resolved engine, notion, order): byte-identical to `sani verify
      // --deterministic-report` of the same job.
      const auto render = [&](const store::ScanDir& scan,
                              const verify::VerifyResult& r,
                              double seconds) -> int {
        verify::VerifyOptions opt = scan.manifest().options;
        opt.deterministic_report = args.has("deterministic-report");
        const std::string& name = scan.manifest().label;
        for (const auto& w : r.warnings)
          std::cerr << "warning: " << w << "\n";
        if (json_format) {
          std::cout << verify::json_report(name, opt, r, seconds) << "\n";
        } else {
          std::cout << verify::summarize(name, opt, r, seconds) << "\n";
          if (!r.secure && r.counterexample) {
            circuit::Gadget g =
                circuit::parse_ilang_string(scan.manifest().canonical_ilang);
            circuit::Unfolded u =
                circuit::unfold(g, opt.cache_bits, opt.var_order);
            std::cout << verify::detailed_report(g, u.vars, opt, r);
          }
        }
        return r.timed_out ? 2 : (r.secure ? 0 : 1);
      };

      if (auto dir = args.value("status")) {
        const store::ScanDir scan = store::ScanDir::open(*dir);
        const store::ScanDir::Status st = scan.status();
        const store::ScanManifest& man = scan.manifest();
        std::cout << man.label << ": " << st.done << "/" << scan.shard_count()
                  << " shards done, " << st.claimed << " claimed, "
                  << st.planned << " unclaimed; " << st.reclaims
                  << " reclaims; " << st.checkpoint_bytes
                  << " checkpoint bytes; " << st.combinations_done << "/"
                  << man.total_combinations() << " combinations\n";
        render_leases(std::cout, st);
        const std::uint64_t total = man.total_combinations();
        render_fleet(std::cout, *dir,
                     st.combinations_done < total
                         ? total - st.combinations_done
                         : 0);
        return 0;
      }
      if (auto dir = args.value("resume")) {
        store::ScanDir scan = store::ScanDir::open(*dir);
        const auto artifacts = open_store(store_root_for(*dir));
        store::WorkerOptions wo = worker_options_from();
        obs::Progress::Options prog_options;
        prog_options.use_stderr = obs::Progress::stderr_is_tty();
        obs::Progress progress(prog_options);
        if (args.has("progress")) wo.progress = &progress;
        start_trace(scan);
        // The worker's journal events (worker_start / worker_done) carry
        // the per-run summary; the echo sink keeps it on stderr.
        store::run_scan_worker(scan, artifacts.get(), wo);
        finish_trace(*dir);
        return 0;
      }
      if (auto dir = args.value("finalize")) {
        store::ScanDir scan = store::ScanDir::open(*dir);
        const auto artifacts = open_store(store_root_for(*dir));
        Stopwatch watch;
        start_trace(scan);
        const verify::VerifyResult r =
            store::finalize_scan(scan, artifacts.get());
        finish_trace(*dir);
        return render(scan, r, watch.seconds());
      }

      // Plan — and, unless --plan-only, drain and finalize in one process.
      circuit::Gadget g = load(args, &label);
      const verify::VerifyOptions opt = options_from(args);
      const auto store_dir = args.value("store");
      if (!store_dir)
        throw std::invalid_argument(
            "scan needs --store DIR (or --resume/--finalize/--status)");
      const auto artifacts = open_store(store_dir);
      const int hint =
          opt.jobs > 0 ? opt.jobs
                       : static_cast<int>(std::thread::hardware_concurrency());
      store::PlanOutcome plan;
      store::ScanDir scan =
          store::plan_scan(g, label, opt, *artifacts, hint, &plan);
      obs::Journal::instance().info(
          "scan", plan.resumed ? "reopened" : "planned",
          {{"shards", static_cast<std::uint64_t>(scan.shard_count())},
           {"dir", plan.dir},
           {"trace_id", scan.manifest().trace_id},
           {"basis", plan.basis_hit ? "hit"
                                    : plan.basis_saved ? "saved" : "cold"}});
      if (args.has("plan-only")) {
        std::cout << plan.dir << "\n";
        return 0;
      }
      store::WorkerOptions wo = worker_options_from();
      wo.basis = plan.basis;  // still in memory from planning
      // Fold checkpoints in-process as they are written: when this worker
      // drains the whole scan (the common one-shot case), finalize renders
      // from memory instead of re-reading every SANIPAR file.
      verify::ReportAssembler assembler(plan.basis, scan.manifest().options);
      wo.assembler = &assembler;
      obs::Progress::Options prog_options;
      prog_options.use_stderr = obs::Progress::stderr_is_tty();
      obs::Progress progress(prog_options);
      if (args.has("progress")) wo.progress = &progress;
      Stopwatch watch;
      start_trace(scan);
      const store::WorkerOutcome out =
          store::run_scan_worker(scan, artifacts.get(), wo);
      if (!out.drained) {
        obs::Journal::instance().warn(
            "scan", "stopped",
            {{"shards", out.shards_done},
             {"resume", "sani scan --resume " + plan.dir}});
        finish_trace(plan.dir);
        return 2;
      }
      const verify::VerifyResult r =
          store::finalize_scan(scan, artifacts.get(), plan.basis, &assembler);
      finish_trace(plan.dir);
      return render(scan, r, watch.seconds());
    }
    return usage("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
