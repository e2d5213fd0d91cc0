#pragma once
// The verification execution core (internal header).
//
// Driver runs one engine backend over a shared, immutable verify::Basis and
// checks XOR-combinations of observables against the notion's spectral
// predicate.  It is consumed two ways:
//
//  * run() — the serial engines (verify/engine.cpp): full enumeration in
//    the configured search order, plus the set-level union pass.
//  * prepare() + run_shard() — the parallel runtime (verify/parallel.cpp):
//    pool workers execute contiguous rank ranges of the combination space.
//    Every engine shares the one prepared Basis; for the ADD engines
//    (MAPI/FUJITA) the Driver additionally owns a private dd::Manager and
//    thaws the Basis' frozen forest into it at construction
//    (Manager::import_forest) — no unfolding replay anywhere.
//
// Cancellation is cooperative: the sched::CancelToken (external, or an
// internal one armed from VerifyOptions::time_limit) is polled at every
// combination.  All mutable state is confined to the Driver; the Basis is
// read-only, so Drivers over one Basis run concurrently without sharing.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "dd/add.h"
#include "obs/metrics.h"
#include "sched/cancel.h"
#include "sched/shard.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/incremental.h"
#include "verify/observables.h"
#include "verify/predicate.h"
#include "verify/qinfo.h"
#include "verify/rowcheck.h"
#include "verify/types.h"

namespace sani::verify {

class Backend;
struct PartialReport;

class Driver {
 public:
  /// The Basis is the complete verification input for every engine.  When
  /// the engine's registry entry has needs_thaw (MAPI/FUJITA) the Driver
  /// creates a private dd::Manager and thaws the Basis' frozen forest into
  /// it here; the scan engines never touch a manager.  `cancel` may be
  /// null: the driver then arms an internal token from options.time_limit.
  /// An external token is polled but never armed.
  Driver(std::shared_ptr<const Basis> basis, const VerifyOptions& options,
         sched::CancelToken* cancel = nullptr);
  ~Driver();

  /// Full serial verification (enumeration + union pass).
  VerifyResult run();

  /// Arms the diff-aware scan: combinations `plan` classifies as clean are
  /// replayed instead of checked (null plan = cold scan), and every
  /// per-combination outcome is recorded into `collector` (null = no
  /// recording).  Either may be set independently; call before run() /
  /// run_shard().
  void set_incremental(const IncrementalPlan* plan,
                       SummaryCollector* collector) {
    plan_ = plan;
    collector_ = collector;
  }

  /// Credits the one-time basis build (base coefficients + "base" phase
  /// seconds) to this driver's stats.  The basis is built once and shared,
  /// so exactly one accounting site calls this: the serial entry points do;
  /// the parallel controller credits the merged result instead.
  void count_basis_build();

  // --- shard-mode API (parallel runtime) -----------------------------------

  /// A failure found inside a shard, tagged with its combination for the
  /// deterministic cross-worker merge.
  struct ShardFailure {
    std::vector<int> combo;
    CounterExample ce;
  };

  struct ShardOutcome {
    std::optional<ShardFailure> failure;  // first failure within the shard
    bool timed_out = false;               // deadline expired mid-shard
    bool abandoned = false;               // stopped: cannot beat best failure
  };

  /// Builds the backend (and, for the ADD engines, its manager-bound base).
  /// Idempotent; run_shard() calls it on first use.
  void prepare();

  /// Checks lexicographic ranks [shard.begin, shard.end) of the size-k
  /// combinations.  Stops at the shard's first failure, on deadline expiry,
  /// or — once the cancel token fires — at the first combination for which
  /// `still_relevant` returns false (the parallel controller passes the
  /// "is this combination still ordered before the best known failure?"
  /// predicate, which keeps the merged witness deterministic).
  void run_shard(const sched::Shard& shard,
                 const std::function<bool(const std::vector<int>&)>&
                     still_relevant,
                 ShardOutcome& out);

  /// run_shard() plus per-shard delta capture: the counters, phase seconds
  /// and union-check entries this shard contributed are snapshotted into
  /// `part` (the entries are *drained* out of the driver's own store — in
  /// shard-partial mode the PartialReport, not the driver, owns the
  /// merge-bound state).  With a null `still_relevant` and an unexpired
  /// token the resulting partial is complete: a pure function of (basis,
  /// options, shard), whatever ran before it on this driver.
  void run_shard_partial(const sched::Shard& shard,
                         const std::function<bool(const std::vector<int>&)>&
                             still_relevant,
                         ShardOutcome& out, PartialReport& part);

  /// Set-level union pass over an arbitrary (possibly merged) store.
  void union_pass_over(const QInfoStore& qinfo, VerifyResult& result);

  /// Union-check data accumulated so far (shard mode).
  const QInfoStore& qinfo() const { return qinfo_; }

  /// Counters accumulated by this driver (shard mode reads them per worker).
  const VerifyStats& stats() const { return stats_; }

  /// Peak node count of the private manager; 0 for the scan engines (they
  /// never touch a manager).
  std::size_t peak_nodes() const;

  /// Wall-clock cost of thawing the Basis' frozen forest into the private
  /// manager (0 for the scan engines).
  double thaw_seconds() const { return thaw_seconds_; }

  /// Private-manager counters (all zero for the scan engines).
  dd::ManagerStats manager_stats() const;

  /// Resolved computed-table size of the private manager (0 when there is
  /// no manager, i.e. for the scan engines).
  int manager_cache_bits() const;

  /// Node-store footprint of the private manager in bytes (0 without one).
  std::size_t manager_arena_bytes() const;

  /// Flat convolution-arena counters of this driver's backend (all zero for
  /// backends that do not convolve through an arena, e.g. LIL/FUJITA).
  const spectral::ArenaStats& arena_stats() const { return arena_stats_; }

 private:
  struct CheckFailure {
    Mask alpha;
    std::string reason;
  };

  RowContext context_for(const std::vector<int>& combo) const;
  RowContext context_for_path() const { return context_for(path_); }

  /// Checks the current path_ as one combination; failure data on failure.
  /// Ticks the progress meter, records the outcome into the collector and
  /// (when a metrics export was requested) samples the check latency into
  /// the per-rank histogram.
  std::optional<CheckFailure> check_current();
  std::optional<CheckFailure> check_current_impl();

  /// check_current() for an explicit combination, with the diff-aware
  /// classification in front: clean combinations replay their recorded
  /// verdict without touching the backend; dirty ones sync the prefix
  /// stack and check for real.
  std::optional<CheckFailure> check_combo(const std::vector<int>& combo);

  /// Rebuilds the backend stack so that path_ == combo, popping/pushing
  /// only the differing suffix (prefix sharing).
  void sync_path(const std::vector<int>& combo);

  CounterExample make_counterexample(const std::vector<int>& combo,
                                     const CheckFailure& failure) const;

  bool expired(VerifyResult& result);
  void dfs(int start, VerifyResult& result);
  /// dfs() in the same visit order, but routed through check_combo() so
  /// clean combinations skip the backend push entirely.
  void dfs_incremental(int start, std::vector<int>& combo,
                       VerifyResult& result);
  void largest_first(VerifyResult& result);

  /// Imports basis_->frozen into manager_ and wraps the roots in handles
  /// (records thaw_seconds_); empty for the scan engines.
  std::vector<dd::Add> thaw_roots();

  std::shared_ptr<const Basis> basis_;
  const VerifyOptions& options_;
  bool needs_region_;  // the backend reads RowCheck::query's region
  std::unique_ptr<dd::Manager> manager_;  // ADD engines: private thaw target
  double thaw_seconds_ = 0.0;
  std::vector<dd::Add> thawed_;  // handles over the thawed frozen roots
  std::unique_ptr<PredicateBuilder> preds_;
  RowCheck rowcheck_;
  std::unique_ptr<Backend> backend_;
  bool prepared_ = false;
  std::vector<int> path_;
  // Resolved per-rank latency histogram handles ("verify.check_ns.k<k>"),
  // indexed by combination size; filled lazily so the registry mutex stays
  // out of the enumeration loop.
  std::vector<obs::Histogram*> rank_hist_;
  QInfoStore qinfo_;
  const IncrementalPlan* plan_ = nullptr;
  SummaryCollector* collector_ = nullptr;
  std::vector<int> plan_scratch_;
  spectral::ArenaStats arena_stats_;
  VerifyStats stats_;
  sched::CancelToken own_cancel_;
  sched::CancelToken* cancel_;
};

}  // namespace sani::verify
