#include "store/cached_verify.h"

#include <optional>
#include <sstream>
#include <utility>

#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "store/sha256.h"
#include "store/serial.h"
#include "verify/incremental.h"
#include "verify/qinfo.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/observables.h"

namespace sani::store {

verify::BasisNeeds needs_for_engine(verify::EngineKind engine) {
  const verify::BackendInfo& info =
      verify::backend_info(verify::resolve_engine(engine));
  verify::BasisNeeds needs;
  needs.spectra = info.needs_spectra;
  needs.lil = info.needs_lil;
  needs.frozen_fns = info.frozen_fns;
  needs.frozen_spectra = info.frozen_spectra;
  return needs;
}

std::string artifact_key(const std::string& canonical_ilang,
                         const verify::VerifyOptions& options) {
  const verify::BasisNeeds needs = needs_for_engine(options.engine);
  std::ostringstream material;
  // A versioned, field-tagged preimage: any change to what a Basis contains
  // bumps kFormatVersion, which re-keys every artifact — old objects simply
  // stop being referenced (and age out of the LRU) instead of being
  // misread.
  material << "sani-artifact-key-v" << kFormatVersion << '\n'
           << "netlist-sha256:" << sha256_hex(canonical_ilang) << '\n'
           << "probes:include_inputs=" << options.probes.include_inputs
           << ",dedupe=" << options.probes.dedupe
           << ",glitch_robust=" << options.probes.glitch_robust << '\n'
           << "notion:" << verify::notion_name(options.notion) << '\n'
           << "var_order:" << static_cast<int>(options.var_order) << '\n'
           << "sift:" << options.sift_after_unfold << '\n'
           << "needs:spectra=" << needs.spectra << ",lil=" << needs.lil
           << ",frozen_fns=" << needs.frozen_fns
           << ",frozen_spectra=" << needs.frozen_spectra << '\n';
  return sha256_hex(material.str());
}

std::string artifact_key(const circuit::Gadget& gadget,
                         const verify::VerifyOptions& options) {
  return artifact_key(circuit::write_ilang_string(gadget), options);
}

std::string summary_family_key(const circuit::Gadget& gadget,
                               const verify::VerifyOptions& options) {
  std::ostringstream material;
  material << "sani-summary-family-v" << kSummaryFormatVersion << '\n'
           << "module:" << gadget.netlist.name() << '\n'
           << "notion:" << verify::notion_name(options.notion) << '\n'
           << "probes:include_inputs=" << options.probes.include_inputs
           << ",dedupe=" << options.probes.dedupe
           << ",glitch_robust=" << options.probes.glitch_robust << '\n'
           << "joint:" << options.joint_share_count << '\n'
           << "union:" << options.union_check << '\n'
           << "var_order:" << static_cast<int>(options.var_order) << '\n'
           << "sift:" << options.sift_after_unfold << '\n';
  return sha256_hex(material.str());
}

std::string summary_object_key(const std::string& family_key,
                               const std::string& artifact_key) {
  std::ostringstream material;
  material << "sani-summary-key-v" << kSummaryFormatVersion << '\n'
           << "family:" << family_key << '\n'
           << "artifact:" << artifact_key << '\n';
  return sha256_hex(material.str());
}

namespace {

/// The incremental scan around verify_basis: seed a plan from the family
/// head's summary (if any survives the semantic guards), collect a fresh
/// summary, and repoint the head — every step best-effort.
verify::VerifyResult run_incremental(const circuit::Gadget& gadget,
                                     const verify::VerifyOptions& options,
                                     ArtifactStore& store,
                                     std::shared_ptr<const verify::Basis> basis,
                                     const std::string& key,
                                     StoreOutcome* outcome,
                                     sched::CancelToken* cancel) {
  const std::string family = summary_family_key(gadget, options);

  std::shared_ptr<const verify::ConeSummary> prior;
  if (std::optional<std::string> head = store.family_head(family))
    prior = store.load_summary(*head);
  std::optional<verify::IncrementalPlan> plan;
  if (prior) plan = verify::IncrementalPlan::build(*basis, prior, options);

  // A Basis without a cone index (deserialized from a pre-v3 artifact)
  // can neither seed nor produce a summary — plain scan, zero stats.
  const bool collect = basis->cones.available;
  const int n = static_cast<int>(basis->size());
  verify::SummaryCollector collector(n, options.order);
  verify::QInfoStore deps(n);

  verify::IncrementalContext ctx;
  if (plan) ctx.plan = &*plan;
  if (collect) {
    ctx.collector = &collector;
    ctx.deps_out = &deps;
  }
  if (outcome) outcome->summary_hit = plan.has_value();

  // The basis must outlive the scan here (the plan and the summary both
  // read it), so pass a copy of the handle, not the handle.
  verify::VerifyResult result =
      verify::verify_basis(basis, options, cancel, &ctx);

  result.stats.incremental.active = true;
  result.stats.incremental.cones_total = static_cast<std::uint64_t>(n);
  if (plan) result.stats.incremental.cones_reused = plan->cones_reused();

  if (collect) {
    const verify::ConeSummary summary =
        verify::make_summary(*basis, options, std::move(collector), deps);
    // A timed-out run publishes the summary of its completed prefix too —
    // unchecked ranks stay 0 in the bitmaps and classify as dirty on
    // replay, so the next attempt resumes past the verdicts this one paid
    // for.  Guard: never repoint the family head at a summary with less
    // coverage than the one already there (a short re-run after a long one
    // must not shrink the cache).
    bool publish = true;
    if (result.timed_out) {
      const std::uint64_t checked = verify::summary_checked_count(summary);
      publish = checked > 0 &&
                (!prior || verify::summary_checked_count(*prior) < checked);
    }
    if (publish) {
      const std::string skey = summary_object_key(family, key);
      const bool saved = store.save_summary(skey, summary) &&
                         store.set_family_head(family, skey);
      if (outcome) outcome->summary_saved = saved;
    }
  }
  return result;
}

}  // namespace

verify::VerifyResult verify_with_store(const circuit::Gadget& gadget,
                                       const verify::VerifyOptions& options,
                                       ArtifactStore& store,
                                       StoreOutcome* outcome,
                                       sched::CancelToken* cancel) {
  const std::string key = artifact_key(gadget, options);
  if (outcome) outcome->key = key;

  std::shared_ptr<const verify::Basis> basis = store.load_basis(key);
  if (basis) {
    if (outcome) outcome->hit = true;
  } else {
    // Cold path: exactly verify::verify's pipeline, plus a best-effort save.
    const circuit::Unfolded unfolded = verify::unfold_for(gadget, options);
    verify::ObservableSet observables =
        verify::build_observables(gadget, unfolded, options.probes);
    basis = verify::build_basis(unfolded, observables, options.engine);
    const bool saved =
        store.save_basis(key, *basis, needs_for_engine(options.engine));
    if (outcome) outcome->saved = saved;
  }

  if (options.incremental)
    return run_incremental(gadget, options, store, std::move(basis), key,
                           outcome, cancel);
  return verify::verify_basis(std::move(basis), options, cancel);
}

}  // namespace sani::store
