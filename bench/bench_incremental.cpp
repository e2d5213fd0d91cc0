// Incremental re-verification: cold full scan vs resubmission after a
// single-gate edit, for both edit kinds of circuit/edit.h.
//
// For each benchmark gadget the harness runs the store-backed pipeline on
// the original and two edits of it: a fan-in swap, which changes no
// function, and an XOR complemented, which complements the functions of
// the cones holding that gate but keeps the gadget's verdict, so the scan
// still enumerates every combination (gadgets with no such XOR fall back to
// the swap).  In order: a cold scan of the complemented gadget (fresh
// store); a seed run of the original; the swap, seeded by the original's
// summary (every cone digest matches, so `swap_rechecked` is 0); the
// complement, seeded by the same summary (the dirty cones are `rechecked`,
// the rest `replayed`); and the complement unchanged (every combination
// replays).  `summary_bytes` is the size of the SANISUM object the seed
// run wrote.  The wall-clock columns are machine-specific; the
// combination/cone counters and the summary size are exact and
// machine-independent, which is what CI diffs against the committed
// BENCH_incremental.json baseline.
//
// --json [PATH] writes the rows as machine-readable JSON (default PATH:
// BENCH_incremental.json).  The committed baseline at the repo root was
// generated with `bench_incremental --quick --json`.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.h"
#include "circuit/edit.h"
#include "obs/metrics.h"
#include "store/cached_verify.h"
#include "store/store.h"
#include "util/table.h"

using namespace sani;
using namespace sani::bench;

namespace {

namespace fs = std::filesystem;

struct Row {
  std::string gadget;
  int level = 0;
  bool secure = false;
  // Exact counters (CI diffs these).
  std::uint64_t combinations = 0;        // cold enumeration size
  std::uint64_t cones_total = 0;
  std::uint64_t cones_reused = 0;        // after the complement
  std::uint64_t rechecked = 0;           // dirty combinations re-verified
  std::uint64_t replayed = 0;            // clean combinations replayed
  std::uint64_t resub_rechecked = 0;     // unchanged resubmission (expect 0)
  std::uint64_t swap_rechecked = 0;      // after the swap (expect 0)
  std::uint64_t summary_bytes = 0;       // the seed run's summary object
  // Machine-specific timings (informational).
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
};

struct TempStore {
  fs::path path;
  explicit TempStore(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("sani_bench_incr_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempStore() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

Row run_row(const std::string& name, double timeout) {
  Row row;
  row.gadget = name;
  row.level = gadgets::security_level(name);

  const circuit::Gadget g = gadgets::by_name(name);
  const circuit::WireId swap = circuit::first_swappable_gate(g);
  const circuit::Gadget swapped =
      swap == circuit::kNoWire ? g : circuit::with_swapped_fanins(g, swap);
  const circuit::Gadget edited =
      circuit::with_xor_complemented(g).value_or(swapped);

  verify::VerifyOptions opt;
  opt.order = row.level;
  opt.time_limit = timeout;
  opt.incremental = true;

  // Cold: the edited gadget against an empty store.
  {
    TempStore dir("cold_" + name);
    store::ArtifactStore cold_store({dir.path.string(), 0});
    Stopwatch watch;
    const verify::VerifyResult r =
        store::verify_with_store(edited, opt, cold_store);
    row.cold_seconds = watch.seconds();
    row.secure = r.secure;
    row.combinations = r.stats.combinations;
    row.cones_total = r.stats.incremental.cones_total;
  }

  // Seed with the original, resubmit the swap, then the complement, then
  // the complement as-is.
  TempStore dir("warm_" + name);
  store::ArtifactStore store({dir.path.string(), 0});
  store::verify_with_store(g, opt, store);
  if (const auto head =
          store.family_head(store::summary_family_key(g, opt)))
    row.summary_bytes = store.get(*head).value_or("").size();
  row.swap_rechecked = store::verify_with_store(swapped, opt, store)
                           .stats.incremental.combinations_rechecked;
  {
    Stopwatch watch;
    const verify::VerifyResult r =
        store::verify_with_store(edited, opt, store);
    row.warm_seconds = watch.seconds();
    row.cones_reused = r.stats.incremental.cones_reused;
    row.rechecked = r.stats.incremental.combinations_rechecked;
    row.replayed = r.stats.incremental.combinations_skipped;
  }
  {
    const verify::VerifyResult r =
        store::verify_with_store(edited, opt, store);
    row.resub_rechecked = r.stats.incremental.combinations_rechecked;
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"incremental\",\n  \"notion\": \"sni\",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"gadget\": \"" << obs::json_escape(r.gadget)
       << "\", \"level\": " << r.level
       << ", \"secure\": " << (r.secure ? "true" : "false")
       << ", \"combinations\": " << r.combinations
       << ", \"cones_total\": " << r.cones_total
       << ", \"cones_reused\": " << r.cones_reused
       << ", \"rechecked\": " << r.rechecked
       << ", \"replayed\": " << r.replayed
       << ", \"resub_rechecked\": " << r.resub_rechecked
       << ", \"swap_rechecked\": " << r.swap_rechecked
       << ", \"summary_bytes\": " << r.summary_bytes
       << ", \"cold_seconds\": " << r.cold_seconds
       << ", \"warm_seconds\": " << r.warm_seconds << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double timeout = default_timeout(args);

  std::cout << "== Incremental: cold scan vs one-gate-edit resubmissions "
               "(d-SNI) ==\n";
  TextTable table({"sec. lev.", "gadget", "combos", "cones reused",
                   "re-checked", "replayed", "swap re-checked", "cold (s)",
                   "warm (s)", "saved"});
  std::vector<Row> rows;
  for (const std::string& name : select_gadgets(args)) {
    Row r = run_row(name, timeout);
    // The share of the complement's visited combinations that replayed (an
    // insecure scan visits past the cold count of combinations up to its
    // witness, so that count is no denominator).
    std::ostringstream saved;
    const std::uint64_t visited = r.replayed + r.rechecked;
    if (visited > 0)
      saved << std::fixed << std::setprecision(1)
            << 100.0 * static_cast<double>(r.replayed) /
                   static_cast<double>(visited)
            << "%";
    else
      saved << "-";
    table.row()
        .add(r.level)
        .add(r.gadget)
        .add(r.combinations)
        .add(r.cones_reused)
        .add(r.rechecked)
        .add(r.replayed)
        .add(r.swap_rechecked)
        .add(r.cold_seconds)
        .add(r.warm_seconds)
        .add(saved.str());
    rows.push_back(std::move(r));
  }
  std::cout << table.to_ascii();
  if (args.has("json")) {
    const std::string path = args.value_or("json", "BENCH_incremental.json");
    write_json(path, rows);
    std::cout << "json rows written to " << path << "\n";
  }
  return 0;
}
