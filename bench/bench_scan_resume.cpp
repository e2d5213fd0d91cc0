// Checkpointed-scan overhead: the manifest-driven plan/claim/checkpoint/
// finalize pipeline (store/scan.h) vs the no-checkpoint store-backed scan
// of the same job (store::verify_with_store, the path behind `sani verify
// --store` and the daemon).  Both sides run cold against a fresh store and
// pay the basis build + artifact save; the delta is exactly what
// checkpointing adds — the claim protocol, the per-shard SANIPAR writes
// and the assembler merge (the one-shot path folds in memory, so finalize
// re-reads nothing).  That tax is per-combination bookkeeping, so its
// share depends on how fast the scan itself is: ~2-5% under MAPI, 5-25%
// under the default DIRECT engine, whose scan is 3-4x faster.  The
// committed BENCH_scan.json baseline records one representative run
// (wall-clock ratios on a shared machine wander several points either
// way).
//
// Exact, machine-independent columns CI diffs row for row: the verdict,
// the shard plan size, the drained combination count and the checkpoint
// byte footprint.  Seconds and the overhead percentage are machine-
// specific; CI re-measures the overhead with a relaxed gate rather than
// diffing it (shared runners are noisy).  The ratio moves whenever the
// scan itself gets faster, so the JSON also states the protocol cost in
// absolute terms: the plan and finalize seconds of the best scan rep, and
// the overhead per shard in microseconds.
//
// --json [PATH] writes the rows as machine-readable JSON (default PATH:
// BENCH_scan.json).  The committed baseline was generated with
// `bench_scan_resume --json`.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "store/cached_verify.h"
#include "store/manifest.h"
#include "store/scan.h"
#include "store/store.h"
#include "util/table.h"
#include "verify/engine.h"
#include "verify/partial.h"

using namespace sani;
using namespace sani::bench;

namespace {

namespace fs = std::filesystem;

struct Row {
  std::string gadget;
  int order = 0;
  bool secure = false;
  // Exact counters (CI diffs these).
  std::uint64_t shards = 0;
  std::uint64_t combinations = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Machine-specific timings (informational; CI re-measures).
  double plain_seconds = 0.0;
  double scan_seconds = 0.0;
  double plan_seconds = 0.0;      // of scan_seconds: plan_scan
  double worker_seconds = 0.0;    // of scan_seconds: run_scan_worker
  double finalize_seconds = 0.0;  // of scan_seconds: finalize_scan
  double overhead_percent = 0.0;
  double protocol_us_per_shard = 0.0;  // (scan - plain) / shards
};

struct TempStore {
  fs::path path;
  explicit TempStore(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("sani_bench_scan_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempStore() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

Row run_row(const std::string& name, int order, int reps) {
  Row row;
  row.gadget = name;
  row.order = order;

  const circuit::Gadget g = gadgets::by_name(name);
  verify::VerifyOptions opt;
  opt.order = order;

  // Best-of-N for both pipelines, reps interleaved (plain, scan, plain,
  // scan ...) so frequency scaling and background load hit both sides the
  // same way — the overhead ratio is the quantity of interest.  Fresh
  // store per rep keeps every run cold (build + save), mirroring the scan
  // side's plan phase.
  double plain = 0.0;
  double scan_best = 0.0;
  for (int i = 0; i < reps; ++i) {
    {
      TempStore dir("plain_" + name + "_" + std::to_string(i));
      store::ArtifactStore store({dir.path.string(), 0});
      Stopwatch watch;
      const verify::VerifyResult r = store::verify_with_store(g, opt, store);
      const double s = watch.seconds();
      if (i == 0 || s < plain) plain = s;
      row.secure = r.secure;
    }
    TempStore dir("run_" + name + "_" + std::to_string(i));
    store::ArtifactStore store({dir.path.string(), 0});
    Stopwatch watch;
    store::PlanOutcome plan;
    store::ScanDir scan = store::plan_scan(g, name, opt, store, 2, &plan);
    const double t_plan = watch.seconds();
    store::WorkerOptions w;
    w.basis = plan.basis;  // the one-shot CLI path shares these the same way
    verify::ReportAssembler assembler(plan.basis, scan.manifest().options);
    w.assembler = &assembler;
    const store::WorkerOutcome out = store::run_scan_worker(scan, &store, w);
    const double t_work = watch.seconds();
    const verify::VerifyResult r =
        store::finalize_scan(scan, &store, plan.basis, &assembler);
    const double s = watch.seconds();
    if (i == 0 || s < scan_best) {
      scan_best = s;
      row.plan_seconds = t_plan;
      row.worker_seconds = t_work - t_plan;
      row.finalize_seconds = s - t_work;
    }
    if (i == 0) {
      row.shards = scan.shard_count();
      row.combinations = out.combinations;
      row.checkpoint_bytes = scan.status().checkpoint_bytes;
    }
    if (r.secure != row.secure) {
      std::cerr << "verdict mismatch on " << name << "\n";
      std::exit(1);
    }
  }
  row.plain_seconds = plain;
  row.scan_seconds = scan_best;
  row.overhead_percent =
      plain > 0.0 ? 100.0 * (scan_best - plain) / plain : 0.0;
  if (row.shards > 0)
    row.protocol_us_per_shard =
        1e6 * (scan_best - plain) / static_cast<double>(row.shards);
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"scan_resume\",\n  \"notion\": \"sni\",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"gadget\": \"" << obs::json_escape(r.gadget)
       << "\", \"order\": " << r.order
       << ", \"secure\": " << (r.secure ? "true" : "false")
       << ", \"shards\": " << r.shards
       << ", \"combinations\": " << r.combinations
       << ", \"checkpoint_bytes\": " << r.checkpoint_bytes
       << ", \"plain_seconds\": " << r.plain_seconds
       << ", \"scan_seconds\": " << r.scan_seconds
       << ", \"plan_seconds\": " << r.plan_seconds
       << ", \"finalize_seconds\": " << r.finalize_seconds
       << ", \"overhead_percent\": " << r.overhead_percent
       << ", \"protocol_us_per_shard\": " << r.protocol_us_per_shard
       << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int reps = static_cast<int>(args.value_int("reps", 3));

  // Compute-bound jobs (hundreds of ms): big enough that the per-shard
  // checkpoint writes are measured against real work, small enough for CI.
  // Smaller registry gadgets finish in tens of milliseconds — there the
  // fixed plan/finalize cost dominates and the ratio measures the job's
  // smallness, not the checkpoint protocol.
  const std::vector<std::pair<std::string, int>> jobs = {
      {"keccak-3", 2}, {"dom-4", 3}};

  std::cout << "== Checkpointed scan vs plain serial scan (d-SNI) ==\n";
  TextTable table({"gadget", "order", "shards", "combos", "ckpt bytes",
                   "plain (s)", "plan", "work", "fin", "overhead",
                   "us/shard"});
  std::vector<Row> rows;
  for (const auto& [name, order] : jobs) {
    Row r = run_row(name, order, reps);
    std::ostringstream pct;
    pct << std::fixed << std::setprecision(1) << r.overhead_percent << "%";
    table.row()
        .add(r.gadget)
        .add(r.order)
        .add(r.shards)
        .add(r.combinations)
        .add(r.checkpoint_bytes)
        .add(r.plain_seconds)
        .add(r.plan_seconds)
        .add(r.worker_seconds)
        .add(r.finalize_seconds)
        .add(pct.str())
        .add(r.protocol_us_per_shard);
    rows.push_back(std::move(r));
  }
  std::cout << table.to_ascii();
  if (args.has("json")) {
    const std::string path = args.value_or("json", "BENCH_scan.json");
    write_json(path, rows);
    std::cout << "json rows written to " << path << "\n";
  }
  return 0;
}
