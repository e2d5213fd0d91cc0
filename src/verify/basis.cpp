#include "verify/basis.h"

#include "dd/add.h"
#include "dd/walsh.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "verify/backends/registry.h"

namespace sani::verify {

std::shared_ptr<Basis> build_basis(const circuit::Unfolded& unfolded,
                                   const ObservableSet& observables,
                                   const BasisNeeds& needs) {
  obs::Span span("basis_build");
  Stopwatch watch;
  auto basis = std::make_shared<Basis>();
  basis->vars = unfolded.vars;
  basis->num_outputs = observables.num_outputs;
  basis->obs.reserve(observables.items.size());

  const bool subset_walk =
      needs.spectra || needs.frozen_fns || needs.frozen_spectra;
  // Handles keep the to-be-frozen roots alive across GC safe points until
  // export_forest snapshots them; `roots` records the NodeIds in the order
  // the index tables refer to them.
  std::vector<dd::Bdd> fn_handles;
  std::vector<dd::Add> spectrum_handles;
  std::vector<dd::NodeId> roots;
  // The dense path needs no ADD; when MAPI's frozen spectra are also asked
  // for, the Walsh ADD is built anyway and serves both.
  const bool dense = needs.dense && needs.spectra && !needs.frozen_spectra;
  std::vector<std::int64_t> dense_scratch;

  Mask used;
  for (const auto& o : observables.items) {
    ObservableInfo info;
    info.kind = o.kind;
    info.name = o.name;
    info.position = o.position;
    info.output_group = o.output_group;
    info.output_share_index = o.output_share_index;
    info.num_subsets = (std::size_t{1} << o.fns.size()) - 1;
    for (const auto& f : o.fns) info.support |= f.support();
    used |= info.support;
    basis->obs.push_back(std::move(info));

    if (!subset_walk) continue;
    const std::size_t num_subsets = (std::size_t{1} << o.fns.size()) - 1;
    std::vector<spectral::FlatSpectrum> subsets;
    std::vector<std::size_t> fn_roots;
    std::vector<std::size_t> spectrum_roots;
    if (needs.spectra) subsets.reserve(num_subsets);
    if (needs.frozen_fns) fn_roots.reserve(num_subsets);
    if (needs.frozen_spectra) spectrum_roots.reserve(num_subsets);
    for_each_xor_subset(o, *unfolded.manager, [&](const dd::Bdd& x) {
      if (needs.frozen_fns) {
        fn_roots.push_back(roots.size());
        roots.push_back(x.node());
        fn_handles.push_back(x);
      }
      if (dense) {
        subsets.push_back(spectral::FlatSpectrum::from_bdd(x, &dense_scratch));
        basis->base_coefficients += subsets.back().nonzero_count();
        return;
      }
      if (needs.spectra || needs.frozen_spectra) {
        // One Walsh transform serves both representations: the flat entries
        // are enumerated from the spectrum ADD, and the same (already
        // reduced) diagram is frozen for the MAPI verification step — no
        // map -> ADD rebuild.
        dd::Add w = dd::walsh_transform(x);
        if (needs.spectra) {
          subsets.push_back(spectral::FlatSpectrum::from_add(
              w, unfolded.vars.num_vars));
          basis->base_coefficients += subsets.back().nonzero_count();
        }
        if (needs.frozen_spectra) {
          spectrum_roots.push_back(roots.size());
          roots.push_back(w.node());
          spectrum_handles.push_back(std::move(w));
        }
      }
    });
    if (needs.lil) {
      std::vector<spectral::LilSpectrum> lil;
      lil.reserve(subsets.size());
      for (const auto& s : subsets)
        lil.push_back(spectral::LilSpectrum::from_flat(s));
      basis->lil.push_back(std::move(lil));
    }
    if (needs.spectra) basis->flat.push_back(std::move(subsets));
    if (needs.frozen_fns) basis->frozen_fn_roots.push_back(std::move(fn_roots));
    if (needs.frozen_spectra)
      basis->frozen_spectrum_roots.push_back(std::move(spectrum_roots));
  }
  if (!roots.empty()) {
    obs::Span freeze_span("freeze");
    basis->frozen = unfolded.manager->export_forest(roots);
  }
  // Public coordinates can only appear in spectra if some observable's
  // function touches them; the scan engines' relation vector is restricted
  // to that slice.
  basis->relevant_publics = used & unfolded.vars.public_vars;
  basis->build_seconds = watch.seconds();
  return basis;
}

BasisNeeds basis_needs(EngineKind engine) {
  const BackendInfo& info = backend_info(resolve_engine(engine));
  BasisNeeds needs;
  needs.spectra = info.needs_spectra;
  needs.lil = info.needs_lil;
  needs.frozen_fns = info.frozen_fns;
  needs.frozen_spectra = info.frozen_spectra;
  needs.dense = info.dense_spectra;
  return needs;
}

std::shared_ptr<Basis> build_basis(const circuit::Unfolded& unfolded,
                                   const ObservableSet& observables,
                                   EngineKind engine) {
  return build_basis(unfolded, observables, basis_needs(engine));
}

ConeIndex index_cones(const circuit::Gadget& gadget,
                      const circuit::Unfolded& unfolded,
                      const ObservableSet& observables) {
  // Observable-kind tags for combine_cone_digest.  The tag (and for outputs
  // the group/share position) is part of the digest because the per-row
  // threshold logic treats outputs and probes differently (PINI, SNI output
  // counting), so a verdict may only be replayed onto an observable with the
  // same role.
  constexpr std::uint32_t kConeTagOutput = 0;
  constexpr std::uint32_t kConeTagProbe = 1;

  std::vector<dd::NodeId> roots;
  for (const Observable& o : observables.items)
    for (const dd::Bdd& f : o.fns) roots.push_back(f.node());
  const std::vector<circuit::ConeDigest> fns =
      circuit::function_digests(*unfolded.manager, roots);

  ConeIndex index;
  index.available = true;
  index.varmap = circuit::varmap_digest(gadget, unfolded.vars);
  index.digests.reserve(observables.items.size());
  auto member = fns.begin();
  for (const Observable& o : observables.items) {
    const auto end = member + static_cast<std::ptrdiff_t>(o.fns.size());
    index.digests.push_back(circuit::combine_cone_digest(
        o.kind == Observable::Kind::kOutput ? kConeTagOutput : kConeTagProbe,
        o.output_group, o.output_share_index, {member, end}));
    member = end;
  }
  return index;
}

void name_observables(Basis& basis,
                      const std::vector<std::string>& wire_names) {
  for (ObservableInfo& o : basis.obs) o.name = wire_names.at(o.position);
}

}  // namespace sani::verify
