#pragma once
// Security notions, verification options and results.
//
// Notions (Sec. II-A of the paper; Barthe et al. [3][4]):
//
//  * d-probing security — any d probed wires are jointly independent of the
//    secrets.
//  * d-NI — any s <= d observations (outputs + internal probes) can be
//    simulated with at most s shares of every input.
//  * d-SNI — strong NI: at most i shares, where i counts only the *internal*
//    probes among the observations.
//  * d-PINI — probe-isolating NI (ref [25]; listed as future work in the
//    paper, implemented here): observations can be simulated from the share
//    *indices* of the probed outputs plus at most i extra indices.
//
// Each notion is decided from the Walsh spectra of XOR-combinations of
// observables; see checker.h for the exact spectral conditions.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "util/mask.h"
#include "obs/clock.h"

namespace sani::obs {
class Progress;
}

namespace sani::verify {

enum class Notion : std::uint8_t { kProbing, kNI, kSNI, kPINI };

const char* notion_name(Notion n);

enum class EngineKind : std::uint8_t {
  kLIL,     // list-of-lists convolution + list-scan verification [11]
  kMAP,     // flat convolution + map-scan verification
  kMAPI,    // flat convolution + ADD verification (the paper's method)
  kFUJITA,  // per-combination Fujita transform + ADD verification
  kAuto,    // the default: resolves to kDIRECT (resolve_engine) before any
            // engine-dependent construction; never reaches the backend
            // registry unresolved
  kDIRECT,  // flat convolution + one coefficient-check pass per row (the
            // production path; beyond the paper)
};

/// The engine `e` runs as: kAuto resolves to kDIRECT, every other kind to
/// itself.  Every site that builds engine-dependent state resolves here.
constexpr EngineKind resolve_engine(EngineKind e) {
  return e == EngineKind::kAuto ? EngineKind::kDIRECT : e;
}

const char* engine_name(EngineKind e);

/// Combination enumeration strategy.
enum class SearchOrder : std::uint8_t {
  /// Depth-first over the observable set: maximal sharing of convolution
  /// prefixes (cheapest on secure instances, where everything is enumerated
  /// anyway).
  kDepthFirst,
  /// The paper's Sec. III-C strategy: all combinations of the maximum size
  /// first, then smaller ones — vulnerabilities are unlikely to be masked
  /// in larger combinations, so failures surface earlier.
  kLargestFirst,
};

/// Probe-universe construction options.
struct ProbeModelOptions {
  /// Probe primary-input wires too (shares/randoms); default follows the
  /// paper: probes are the *intermediate* nodes produced by unfolding.
  bool include_inputs = false;
  /// Drop probes whose function duplicates an earlier observable.
  bool dedupe = true;
  /// Glitch-extended (robust) probes: a probe observes every stable source
  /// in its combinational cone.
  bool glitch_robust = false;
};

struct VerifyOptions {
  Notion notion = Notion::kSNI;
  int order = 1;  // d: maximum number of observations
  EngineKind engine = EngineKind::kAuto;
  ProbeModelOptions probes;

  /// Also run the set-level union check (rigorous NI/SNI/PINI semantics,
  /// subsumes the per-row T-predicate check; see DESIGN.md Sec. 2).
  bool union_check = true;

  /// Share-counting convention for NI/SNI.  false (default): at most t
  /// shares of *each* input (Barthe et al. [4], the convention of
  /// SILVER/maskVerif).  true: at most t input shares *in total*, the
  /// stricter T-matrix the paper uses for its Fig. 2 composition witness
  /// ("one needs only two probed values to get three shares").
  bool joint_share_count = false;

  /// Wall-clock budget in seconds; 0 = unlimited.  On expiry the engine
  /// stops mid-enumeration (the deadline is polled at every combination)
  /// and sets VerifyResult::timed_out.
  double time_limit = 0.0;

  /// Worker count of the shard executor (verify/parallel.h).  1 = one
  /// worker on the calling thread, no thread spawned (default); 0 = one
  /// worker per hardware thread (the resolved count is recorded in
  /// ParallelStats::jobs); N > 1 = exactly N workers.  Every engine shares
  /// one prepared Basis; ADD-engine workers thaw its frozen forest into a
  /// private dd::Manager (the manager's GC/reordering safe-point design is
  /// single-threaded) — no unfolding replays.  Verdicts, witnesses and
  /// deterministic reports are independent of the worker count — see
  /// DESIGN.md "Threading model".
  int jobs = 1;

  /// Combinations per shard; 0 = auto sizing from the worker count
  /// (sched::plan_shards).  Small values tighten the
  /// cancellation latency and exercise stealing; large values amortize
  /// shard setup.
  std::uint64_t shard_size = 0;

  /// Computed-table size of the diagram manager (2^bits entries).
  int cache_bits = 18;

  /// Diagram variable order for the unfolding.  Verdicts are
  /// order-invariant (tested); diagram sizes and times are not
  /// (bench_ordering).
  circuit::VarOrder var_order = circuit::VarOrder::kDeclared;

  /// Run Rudell sifting on the shared manager after unfolding, before
  /// verification (dynamic reordering; see dd::Manager::reorder_sift).
  bool sift_after_unfold = false;

  /// Combination enumeration order (verdict-neutral; affects how fast a
  /// failing witness is reached).
  SearchOrder search_order = SearchOrder::kDepthFirst;

  /// Optional live progress meter (not owned).  The engines call
  /// start(total)/stop() around the enumeration and tick() per combination
  /// from every worker; null (default) skips all of it.
  obs::Progress* progress = nullptr;

  /// Diff-aware incremental scan (store/cached_verify.h): look up the
  /// nearest prior ConeSummary for the gadget family, replay the verdicts
  /// of combinations whose cone digests are unchanged, and re-check only
  /// the dirty ones.  Verdicts, witnesses and deterministic reports are
  /// byte-identical to a cold run (tested); only the work differs.  Ignored
  /// when no artifact store is configured.
  bool incremental = false;

  /// Render reports deterministically: every wall-clock/timing field
  /// (seconds, phase breakdowns, thaw and cancel latencies) is zeroed and
  /// the JSON report's embedded metrics object — which carries volatile,
  /// process-lifetime counters — is omitted.  Two runs that verify the same
  /// input identically then produce byte-identical reports, which is what
  /// lets CI diff a store warm-start against a cold run (`sani
  /// --deterministic-report`; the sanid daemon protocol sets this per
  /// request).
  bool deterministic_report = false;
};

/// A witness of a failed check.
struct CounterExample {
  std::vector<std::string> observables;  // names of the failing combination
  Mask alpha;                            // spectral coordinate of the witness
  std::string reason;                    // human-readable explanation
};

/// Hit/miss counters of one cache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Per-worker counters of a multi-worker run (VerifyOptions::jobs != 1).
struct WorkerStats {
  std::uint64_t shards = 0;        // shards this worker executed
  std::uint64_t combinations = 0;  // combinations it checked
  std::uint64_t coefficients = 0;  // spectrum entries it scanned/produced
  std::uint64_t replays = 0;       // always 0 — unfolding replays were
                                   // removed with the frozen-basis runtime;
                                   // kept so reports/tests can assert it
  double thaw_seconds = 0.0;       // frozen-forest import into its manager
  std::size_t peak_nodes = 0;      // its private manager's peak node count
};

/// Runtime counters of a multi-worker run; `jobs` stays 0 on `--jobs 1`.
struct ParallelStats {
  int jobs = 0;                        // resolved worker count (after
                                       // --jobs 0 expands to the hardware
                                       // concurrency)
  bool shared_basis = false;           // true on every parallel run: all
                                       // workers share one prepared Basis
  std::uint64_t shards_total = 0;      // shards the plan produced
  std::uint64_t shards_stolen = 0;     // executed by a non-owner worker
  std::uint64_t shards_skipped = 0;    // cancelled before starting
  std::uint64_t shards_abandoned = 0;  // cancelled mid-shard
  std::uint64_t replays = 0;           // always 0 (see WorkerStats::replays)
  double cancel_latency = 0.0;  // max cancel-to-acknowledge gap (seconds)
  std::vector<WorkerStats> workers;
};

/// Counters of the diff-aware incremental scan (active only when
/// VerifyOptions::incremental ran against an artifact store).  The scan's
/// verdict/witness/report bytes are incremental-invariant; these counters
/// are how much work the prior summary saved.
struct IncrementalStats {
  bool active = false;            // an incremental run was requested
  std::uint64_t cones_total = 0;  // observables in the new universe
  std::uint64_t cones_reused = 0;  // whose digest matched the prior summary
  std::uint64_t combinations_skipped = 0;    // verdicts replayed from it
  std::uint64_t combinations_rechecked = 0;  // dirty, re-verified
};

struct VerifyStats {
  std::uint64_t combinations = 0;   // XOR-combinations enumerated
  std::uint64_t coefficients = 0;   // spectrum entries scanned/produced
  std::size_t num_observables = 0;  // outputs + probes in the universe
  CacheStats prefix_memo;           // always zero (there is no prefix memo);
                                    // kept for perfbench, which reads it
  CacheStats region_cache;          // row-check region/predicate cache
  std::uint64_t qinfo_entries = 0;      // union-check combinations recorded
  std::uint64_t qinfo_peak_bytes = 0;   // peak size of the union-check arena
  std::size_t frozen_nodes = 0;     // nodes in the Basis' frozen forest
  std::size_t frozen_bytes = 0;     // its serialized footprint
  double thaw_seconds = 0.0;        // frozen-forest import cost (summed
                                    // across workers when parallel)
  std::uint64_t dd_cache_hits = 0;    // manager computed-table hits
  std::uint64_t dd_cache_misses = 0;  // (summed across workers; 0 for the
                                      // scan engines)
  std::size_t dd_peak_nodes = 0;    // max private-manager peak node count
  int dd_cache_bits = 0;            // resolved computed-table size
                                    // (VerifyOptions::cache_bits; 0 for the
                                    // scan engines, which own no manager)
  std::uint64_t dd_gc_runs = 0;     // garbage collections (summed across
                                    // workers); the computed table survives
                                    // each one (only dead entries scrubbed)
  std::uint64_t dd_cache_survived = 0;  // entries kept across those GCs
  std::size_t dd_arena_bytes = 0;   // max node-store footprint (SoA arrays,
                                    // stamps, unique subtables) per worker
  std::uint64_t arena_convolutions = 0;  // flat merge-kernel invocations
                                         // (summed across workers)
  std::uint64_t arena_grows = 0;    // convolution-arena buffer growths; on a
                                    // warmed-up scan this plateaus while
                                    // convolutions keeps climbing — the
                                    // zero-per-combination-allocation
                                    // property the tests assert
  std::uint64_t arena_peak_bytes = 0;  // max arena footprint per worker
  IncrementalStats incremental;     // diff-aware scan record (--incremental)
  PhaseTimers timers;               // thaw / base / convolution /
                                    // verification / union (summed across
                                    // workers when parallel)
  ParallelStats parallel;
};

struct VerifyResult {
  bool secure = true;
  bool timed_out = false;
  std::optional<CounterExample> counterexample;
  /// Non-fatal diagnostics; surfaced by the sani CLI on stderr.
  std::vector<std::string> warnings;
  VerifyStats stats;
};

}  // namespace sani::verify
