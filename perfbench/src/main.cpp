// perfbench — the repository benchmark's load generator.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --answers known_answers.tsv --work-dir DIR
//   perfbench --make-answers
//
// One process, one client, closed loop: the next request is sent when the
// previous one returned.  --trace 0 times requests end to end and prints the
// end-to-end metrics; --trace 1 alternates untraced and traced rounds of the
// same requests, prints the per-layer metrics of the traced rounds and the
// tracing overhead against the untraced ones.  The last
// stdout line is the JSON result; the lines above it are the same metrics
// for people.  README.md documents every metric.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "answers.h"
#include "host.h"
#include "metrics.h"
#include "spans.h"
#include "util/cli.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Repetitions of set-up in an untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The host kernel runs after a request when this long has passed since it
/// last ran (so it costs a sweep round about 5%).
constexpr std::int64_t kKernelEveryNs = 100'000'000;

struct Loop {
  std::vector<Outcome> plain;   // untraced requests
  std::vector<Outcome> traced;  // traced requests; span request id = index
  std::vector<double> kernel_ms;  // host kernel times (host.h)
  SpanLog log;
  double wall_seconds = 0.0;
  std::uint64_t failed = 0;
};

/// Closed loop for `seconds`, in whole rounds: at least one round, then
/// more while time remains.  With `trace`, rounds alternate untraced and
/// traced and the loop ends on a traced round, so both halves hold the same
/// requests and see the same drift of the host's speed.
Loop closed_loop(Workload& w, double seconds, bool trace) {
  Loop loop;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t round = w.round_size();
  const std::size_t block = trace ? 2 * round : round;
  std::int64_t last_kernel = 0;
  for (std::size_t i = 0;
       i < block || i % block != 0 || now_ns() - start < budget; ++i) {
    if (i > 0 && i % round == 0) w.begin_round();
    const bool traced = trace && (i / round) % 2 == 1;
    std::vector<Outcome>& out = traced ? loop.traced : loop.plain;
    const Request& r = w.request(i);
    out.push_back(w.execute(r, traced ? &loop.log : nullptr,
                            static_cast<std::uint32_t>(loop.traced.size())));
    out.back().kind = r.kind;
    out.back().jobs = r.jobs;
    out.back().id = r.id;
    if (!out.back().ok && ++loop.failed <= 5)
      std::cout << "FAILED request " << i << ": " << out.back().error << "\n";
    if (now_ns() - last_kernel > kKernelEveryNs) {
      loop.kernel_ms.push_back(host_kernel_ms());
      last_kernel = now_ns();
    }
  }
  loop.wall_seconds = (now_ns() - start) * 1e-9;
  return loop;
}

double sum_ms(const std::vector<Outcome>& v) {
  double sum = 0;
  for (const Outcome& o : v) sum += o.ms;
  return sum;
}

int run(const sani::CliArgs& args, std::int64_t process_start) {
  const std::string name = args.value_or("workload", "");
  const std::uint64_t seed = std::stoull(args.value_or("seed", "1"));
  const double seconds = args.value_double("seconds", 10.0);
  const bool trace = args.value_or("trace", "0") == "1";

  const KnownAnswers answers =
      KnownAnswers::load(args.value_or("answers", "perfbench/known_answers.tsv"));
  Env env;
  env.answers = &answers;
  env.work_dir = args.value_or("work-dir", ".bench_build/work");
  std::filesystem::create_directories(env.work_dir);
  std::unique_ptr<Workload> w = make_workload(name, env);
  if (!w) {
    std::cerr << "perfbench: unknown workload '" << name << "'\n";
    return 64;
  }
  std::cout << "perfbench: workload=" << name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << (trace ? 1 : 0)
            << " (closed loop, 1 client)\n";

  std::vector<Metric> metrics;
  Loop loop;
  if (!trace) {
    std::vector<double> setup_s;
    std::int64_t t = process_start;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      w->setup(seed);
      setup_s.push_back((now_ns() - t) * 1e-9);
      t = now_ns();
    }
    loop = closed_loop(*w, seconds, false);
    const double kernel_best =
        *std::min_element(loop.kernel_ms.begin(), loop.kernel_ms.end());
    const double scale = kReferenceKernelMs / kernel_best;
    metrics = end_to_end_metrics(setup_s, loop.plain, scale);
    std::vector<double> ms;
    for (const Outcome& o : loop.plain) ms.push_back(o.ms);
    std::cout << "closed loop: " << ms.size() << " requests ("
              << ms.size() / w->round_size() << " rounds) in "
              << loop.wall_seconds << " s; unscaled over all requests p50 "
              << quantile(ms, 0.5) << " ms, p90 " << quantile(ms, 0.9)
              << " ms\nhost kernel: best " << kernel_best << " ms, median "
              << quantile(loop.kernel_ms, 0.5) << " ms (reference "
              << kReferenceKernelMs << " ms): times below are scaled by "
              << scale << "\n";
  } else {
    w->setup(seed);
    loop = closed_loop(*w, seconds, true);
    metrics = per_layer_metrics(loop.traced, loop.log);
    const double untraced = sum_ms(loop.plain), with_spans = sum_ms(loop.traced);
    std::cout << "tracing overhead: " << with_spans << " ms traced vs "
              << untraced << " ms untraced over the same "
              << loop.traced.size() << " requests ("
              << (with_spans / untraced - 1) * 100 << "%)\n";
  }
  std::cout << metric_table(metrics);
  std::cout << result_json(loop.plain.size() + loop.traced.size(),
                           loop.failed, metrics)
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const sani::CliArgs args(argc, argv);
  try {
    if (args.has("make-answers")) {
      make_answers(all_jobs(), std::cerr).write(std::cout);
      return 0;
    }
    return run(args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
