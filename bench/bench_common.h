#pragma once
// Shared harness for the table/figure benchmarks.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (Sec. IV).  All of them verify d-SNI on the maskVerif benchmark
// suite, with the per-row T-predicate check only (union_check = false) —
// the methodology the paper times.  The cross-engine and oracle test suites
// guarantee that this configuration returns the same verdicts as the
// rigorous one on this suite.
//
// Common flags:
//   --full          include keccak-3 and dom-4 (long: minutes, and LIL on
//                   keccak-3 is intractable — it times out by design)
//   --quick         the CI set: level-1 gadgets plus the level-2 rows
//                   (dom-2, keccak-2), so both the few-share gadgets and
//                   the keccak rows with large forbidden regions stay
//                   covered
//   --timeout S     per-(gadget, engine) wall-clock budget, default 120 s
//   --gadget NAME   run a single benchmark gadget

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gadgets/registry.h"
#include "util/cli.h"
#include "obs/clock.h"
#include "verify/checker.h"
#include "verify/engine.h"

namespace sani::bench {

struct RunResult {
  bool ran = false;        // false: skipped (e.g. known-intractable)
  bool timed_out = false;
  double seconds = 0.0;
  double convolution = 0.0;   // phase breakout (Fig. 6)
  double verification = 0.0;
  double base = 0.0;
  std::string engine_chosen;  // resolved engine ("MAPI", ...; auto = DIRECT)
  verify::VerifyResult result;
};

/// Times one engine on one benchmark gadget at its table security level.
/// Sub-0.2 s measurements are repeated (up to 5 runs) and the median run is
/// reported, so the level-1 rows are not dominated by first-touch noise.
inline RunResult run_gadget(const std::string& name,
                            verify::EngineKind engine, double timeout,
                            verify::Notion notion = verify::Notion::kSNI) {
  circuit::Gadget g = gadgets::by_name(name);
  verify::VerifyOptions opt;
  opt.notion = notion;
  opt.order = gadgets::security_level(name);
  opt.engine = engine;
  opt.union_check = false;  // the paper's per-row methodology
  opt.time_limit = timeout;

  std::vector<RunResult> runs;
  for (int rep = 0; rep < 5; ++rep) {
    RunResult out;
    Stopwatch watch;
    out.result = verify::verify(g, opt);
    out.seconds = watch.seconds();
    out.timed_out = out.result.timed_out;
    out.base = out.result.stats.timers.get("base");
    out.convolution = out.result.stats.timers.get("convolution");
    out.verification = out.result.stats.timers.get("verification");
    out.engine_chosen = verify::engine_name(verify::resolve_engine(engine));
    out.ran = true;
    runs.push_back(std::move(out));
    if (runs.back().timed_out || runs.back().seconds > 0.2) break;
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.seconds < b.seconds;
            });
  return runs[runs.size() / 2];
}

/// The gadget list of Table I, filtered by the --quick/--full flags.  The
/// quick set spans both regimes of the paper's comparison: small gadgets
/// AND the keccak rows whose forbidden regions make LIL slow.
inline std::vector<std::string> select_gadgets(const CliArgs& args) {
  if (auto g = args.value("gadget")) return {*g};
  std::vector<std::string> names{"ti-1",   "trichina-1", "isw-1", "dom-1",
                                 "keccak-1", "dom-2",    "keccak-2"};
  if (!args.has("quick")) names.push_back("dom-3");
  if (args.has("full")) {
    names.push_back("keccak-3");
    names.push_back("dom-4");
  }
  return names;
}

inline double default_timeout(const CliArgs& args) {
  return args.value_int("timeout", 120);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// "0.00194" or "> 120" when timed out.
inline std::string fmt_time(const RunResult& r, int precision = 5) {
  if (!r.ran) return "-";
  if (r.timed_out) {
    std::ostringstream os;
    os << "> " << static_cast<int>(r.seconds);
    return os.str();
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << r.seconds;
  return os.str();
}

inline std::string fmt_verdict(const RunResult& r) {
  if (!r.ran || r.timed_out) return "?";
  return r.result.secure ? "yes" : "no";
}

}  // namespace sani::bench
