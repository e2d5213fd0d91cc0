#pragma once
// The benchmark's seeded request generators plus the code that submits one
// request through the library's public entry points.
//
//   sweep    — 16 registry gadgets x 4 notions, cold parse -> verify -> report
//   deep     — dom-4 at order 3, SNI, 2 worker threads
//   resubmit — a seeded chain of function-preserving edits submitted through
//              store::verify_with_store (incremental, LRU-capped store),
//              replayed from a fresh store every round
//   sharded  — plan_scan -> run_scan_worker -> finalize_scan, cold
//
// The two workloads pair them: `cold` runs sweep and deep, `store` runs
// resubmit and sharded; each round is one round of both.
//
// README.md records why each was chosen.  A request carries only generated
// ILANG text; the verdict of every request is checked against the
// known-answer table, never against the engine under test.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "answers.h"
#include "spans.h"
#include "store/cached_verify.h"
#include "store/scan.h"
#include "store/store.h"
#include "verify/types.h"

namespace perfbench {

enum class Kind : std::uint8_t {
  kVerify,  // parse -> verify::verify -> json_report
  kWrite,   // resubmit: an edited revision, new to the store
  kRead,    // resubmit: the same text again
  kRename,  // resubmit: the revision with every wire renamed
  kScan,    // sharded: plan -> worker -> finalize -> report
};

const char* kind_name(Kind k);

struct Request {
  Kind kind = Kind::kVerify;
  Job job;
  int jobs = 1;       // VerifyOptions::jobs (WorkerOptions::jobs for kScan)
  std::string ilang;  // the only input the library sees
  std::size_t id = 0;  // position in the round; equal ids repeat a request
};

/// One line per request: kind, job, jobs and the SHA-256 of its text.
std::string describe(const Request& r);

/// What one request produced.
struct Outcome {
  Kind kind = Kind::kVerify;  // of the request
  int jobs = 1;               // of the request
  std::size_t id = 0;         // of the request
  bool ok = false;    // verdict (and, for kScan, report bytes) as expected
  std::string error;  // why not
  double ms = 0.0;    // end to end: text in -> rendered report out
  std::uint64_t combinations = 0;
  sani::verify::VerifyStats stats;

  // Read after the request span closed (traced runs and counters).
  std::uint64_t unfold_nodes = 0;       // kVerify
  std::uint64_t base_coefficients = 0;  // kVerify
  double key_ms = 0.0;                  // kWrite/kRead/kRename: artifact_key
  sani::store::StoreOutcome store;
  sani::store::ArtifactStore::Stats store_stats;
  std::uint64_t bytes_written = 0;  // objects this request put in the store
  sani::store::WorkerOutcome worker;
  std::uint64_t checkpoint_bytes = 0;
};

struct Env {
  const KnownAnswers* answers = nullptr;
  /// Scratch directory for artifact stores and scan directories; each
  /// workload owns a subdirectory and removes it on destruction.
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, resets on-disk state, computes any
  /// reference data and runs one untimed warm-up request.  Repeatable: the
  /// benchmark times several set-ups and keeps the last.
  virtual void setup(std::uint64_t seed) = 0;

  /// The i-th request of the closed loop (deterministic in the seed).
  virtual const Request& request(std::size_t i) = 0;

  /// Requests per round: one pass over every distinct request (ids 0 to
  /// round_size() - 1), so a run of whole rounds has the same mix whatever
  /// its length.
  virtual std::size_t round_size() const = 0;

  /// Called before every round but the first (set-up starts that one);
  /// untimed.
  virtual void begin_round() {}

  /// Submits one request.  A non-null log records its layer spans under
  /// request id `id`; the calls made are the same either way.
  virtual Outcome execute(const Request& r, SpanLog* log, std::uint32_t id) = 0;
};

/// The workload of that name ("cold" or "store") with its default inputs;
/// nullptr if unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env);

// Constructors with explicit inputs (the self-test uses small ones).
std::unique_ptr<Workload> make_sweep(const Env& env,
                                     std::vector<std::string> gadgets);
std::unique_ptr<Workload> make_deep(const Env& env, Job job, int jobs);
std::unique_ptr<Workload> make_resubmit(const Env& env,
                                        std::vector<std::string> gadgets);
std::unique_ptr<Workload> make_sharded(const Env& env, std::vector<Job> jobs,
                                       int workers);

/// Every job the default workloads submit (the known-answer table's rows).
std::vector<Job> all_jobs();

}  // namespace perfbench
