#pragma once
// The verification execution core (internal header).
//
// Driver runs one engine backend over a shared, immutable verify::Basis and
// checks XOR-combinations of observables against the notion's spectral
// predicate.  Its one entry point is run_shard_partial(): check a
// contiguous rank range of the size-k combinations and hand back a
// PartialReport (verify/partial.h).  Both shard executors call it — the
// in-process one (verify/parallel.h, every --jobs value) and the
// checkpointed scan worker (store/scan.h) — and both fold the partials
// through one ReportAssembler, so the union-check dependency masks live in
// exactly one store.  Every engine shares the one Basis; for the ADD
// engines (MAPI/FUJITA) the Driver additionally owns a private dd::Manager
// and thaws the Basis' frozen forest into it at construction
// (Manager::import_forest) — no unfolding replay anywhere.
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
#include "verify/partial.h"
#include "verify/predicate.h"
#include "verify/rowcheck.h"
#include "verify/types.h"

namespace sani::verify {

class Backend;

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

  /// Arms the diff-aware scan: combinations `plan` classifies as clean are
  /// replayed instead of checked (null plan = cold scan), and every
  /// per-combination outcome is recorded into `collector` (null = no
  /// recording).  Either may be set independently; call before
  /// run_shard_partial().
  void set_incremental(const IncrementalPlan* plan,
                       SummaryCollector* collector) {
    plan_ = plan;
    collector_ = collector;
  }

  /// How a shard ended short of its planned end.
  struct ShardOutcome {
    bool timed_out = false;  // deadline expired mid-shard
    bool abandoned = false;  // stopped: `still_relevant` returned false
  };

  /// Checks lexicographic ranks [shard.begin, shard.end) of the size-k
  /// combinations into `part`: the counters and phase seconds the shard
  /// contributed, its locally-first failure, and the dependency record of
  /// every passing combination (appended straight to part.deps).  Stops at
  /// the shard's first failure, on deadline expiry, or — once the cancel
  /// token fires — at the first combination for which `still_relevant`
  /// returns false (the in-process executor passes "is this combination
  /// still ordered before the best known failure?", which keeps the merged
  /// witness deterministic).  With a null `still_relevant` and an unexpired
  /// token the partial is complete: a pure function of (basis, options,
  /// shard), whatever ran before it on this driver.
  void run_shard_partial(const sched::Shard& shard,
                         const std::function<bool(const std::vector<int>&)>&
                             still_relevant,
                         ShardOutcome& out, PartialReport& part);

  /// Counters accumulated by this driver across its shards.
  const VerifyStats& stats() const { return stats_; }

  /// Wall-clock cost of thawing the Basis' frozen forest into the private
  /// manager (0 for the scan engines).
  double thaw_seconds() const { return thaw_seconds_; }

  /// Private-manager counters (all zero for the scan engines).
  dd::ManagerStats manager_stats() const;

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

  /// Builds the backend (and, for the ADD engines, its manager-bound base)
  /// on first use.
  void prepare();

  /// Checks one combination of rank `rank`, with the diff-aware
  /// classification in front: clean combinations replay their recorded
  /// verdict without touching the backend; dirty ones sync the prefix stack
  /// and check for real.  A passing combination's dependency record is
  /// appended to `deps` (union-checking notions only).  Ticks the progress
  /// meter, records the outcome into the collector and (when a metrics
  /// export was requested) samples the check latency into the per-rank
  /// histogram.
  std::optional<CheckFailure> check_combo(
      const std::vector<int>& combo, std::uint64_t rank,
      std::vector<PartialReport::Dep>& deps);

  /// The backend check of path_; its dependency record on a pass.
  std::optional<CheckFailure> check_path(std::uint64_t rank,
                                         std::vector<PartialReport::Dep>& deps);

  /// Rebuilds the backend stack so that path_ == combo, popping/pushing
  /// only the differing suffix (prefix sharing).
  void sync_path(const std::vector<int>& combo);

  /// Imports basis_->frozen into manager_ and wraps the roots in handles
  /// (records thaw_seconds_); empty for the scan engines.
  std::vector<dd::Add> thaw_roots();

  std::shared_ptr<const Basis> basis_;
  const VerifyOptions& options_;
  bool needs_region_;  // the backend reads RowCheck::query's region
  bool records_deps_;  // the notion has a set-level union check
  std::unique_ptr<dd::Manager> manager_;  // ADD engines: private thaw target
  double thaw_seconds_ = 0.0;
  std::vector<dd::Add> thawed_;  // handles over the thawed frozen roots
  std::unique_ptr<PredicateBuilder> preds_;
  RowCheck rowcheck_;
  std::unique_ptr<Backend> backend_;
  std::vector<int> path_;
  // Resolved per-rank latency histogram handles ("verify.check_ns.k<k>"),
  // indexed by combination size; filled lazily so the registry mutex stays
  // out of the enumeration loop.
  std::vector<obs::Histogram*> rank_hist_;
  const IncrementalPlan* plan_ = nullptr;
  SummaryCollector* collector_ = nullptr;
  std::vector<int> plan_scratch_;
  spectral::ArenaStats arena_stats_;
  VerifyStats stats_;
  sched::CancelToken own_cancel_;
  sched::CancelToken* cancel_;
};

}  // namespace sani::verify
