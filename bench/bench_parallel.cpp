// Parallel-runtime scaling sweep: wall-clock time of the sharded runtime
// (src/sched/) at jobs = 1, 2, 4, 8 on mid-size suite entries — keccak-2
// under SNI and dom-3 under NI with the paper's MAPI engine, plus ADD-engine
// rows (keccak-2 under FUJITA, isw-3 under MAPI) that exercise the
// frozen-basis thaw path: every worker imports the shared Basis' frozen
// forest into its private manager instead of replaying the unfolding, so
// the ADD engines now scale like the scan engines.  Emits one json_report
// row per run (same schema as `sani verify --format json`, including the
// "jobs", "parallel", "frozen" and "dd" fields) so the rows concatenate
// with the other bench outputs, followed by a speedup summary table.
//
// Flags:
//   --timeout S    per-run wall-clock budget, default 120 s
//   --jobs-max N   highest worker count to sweep (default 8)

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sched/team.h"
#include "util/table.h"
#include "verify/report.h"

using namespace sani;
using namespace sani::bench;

namespace {

struct SweepCase {
  std::string gadget;
  verify::Notion notion;
  verify::EngineKind engine;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double timeout = default_timeout(args);
  const int jobs_max = args.value_int("jobs-max", 8);

  const std::vector<SweepCase> cases = {
      {"keccak-2", verify::Notion::kSNI, verify::EngineKind::kMAPI},
      {"dom-3", verify::Notion::kNI, verify::EngineKind::kMAPI},
      {"keccak-2", verify::Notion::kSNI, verify::EngineKind::kFUJITA},
      {"isw-3", verify::Notion::kSNI, verify::EngineKind::kMAPI},
  };

  TextTable table({"gadget", "notion", "engine", "jobs", "seconds", "speedup",
                   "shards"});
  for (const SweepCase& c : cases) {
    const circuit::Gadget g = gadgets::by_name(c.gadget);
    double serial_seconds = 0.0;
    for (int jobs = 1; jobs <= jobs_max; jobs *= 2) {
      verify::VerifyOptions opt;
      opt.notion = c.notion;
      opt.order = gadgets::security_level(c.gadget);
      opt.engine = c.engine;
      opt.union_check = false;  // the paper's per-row methodology
      opt.time_limit = timeout;
      opt.jobs = jobs;

      Stopwatch watch;
      const verify::VerifyResult r = verify::verify(g, opt);
      const double seconds = watch.seconds();
      if (jobs == 1) serial_seconds = seconds;

      std::cout << verify::json_report(c.gadget, opt, r, seconds) << "\n";

      std::ostringstream speedup;
      speedup << std::fixed << std::setprecision(2)
              << (seconds > 0 ? serial_seconds / seconds : 0.0) << "x";
      std::ostringstream secs;
      secs << std::fixed << std::setprecision(5) << seconds;
      table.row()
          .add(c.gadget)
          .add(verify::notion_name(c.notion))
          .add(verify::engine_name(c.engine))
          .add(std::to_string(jobs))
          .add(secs.str())
          .add(speedup.str())
          .add(std::to_string(r.stats.parallel.shards_total));
    }
  }
  std::cout << "== parallel scaling (hardware threads: "
            << sched::hardware_threads() << ") ==\n";
  std::cout << table.to_ascii();
  return 0;
}
