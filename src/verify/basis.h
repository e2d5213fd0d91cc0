#pragma once
// Prepared verification artifacts (the immutable layer of the pipeline).
//
// The Fig. 5 pipeline splits into three layers (see DESIGN.md Sec. 7):
//
//   1. prepared artifacts — this file: the per-observable XOR-subset base
//      spectra and the observable/variable metadata, built ONCE per
//      (gadget, probe model) and immutable afterwards;
//   2. backends (verify/backends/) — per-run mutable row stacks over the
//      prepared data;
//   3. row checks (verify/rowcheck.h) — cached forbidden regions and
//      violation predicates.
//
// The Basis is deliberately manager-independent for EVERY engine: spectra
// are flat sorted (mask, coeff) arrays, the VarMap is a value copy, and the
// decision-diagram material the ADD engines verify against is carried as a
// dd::FrozenForest — a flat, manager-free node array (see dd/freeze.h).
// One Basis is therefore shared read-only across all parallel workers;
// engines whose *verification* step runs on decision diagrams (MAPI,
// FUJITA) thaw the frozen roots into their private manager on startup
// (Manager::import_forest, O(nodes)) instead of replaying the unfolding.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "dd/bdd.h"
#include "dd/freeze.h"
#include "spectral/flat_spectrum.h"
#include "spectral/lil_spectrum.h"
#include "spectral/spectrum.h"
#include "util/mask.h"
#include "verify/observables.h"
#include "verify/types.h"

namespace sani::verify {

/// Manager-independent description of one observable (everything the
/// enumeration layer needs; the BDD functions stay in ObservableSet).
struct ObservableInfo {
  Observable::Kind kind = Observable::Kind::kProbe;
  std::string name;
  int output_group = -1;
  int output_share_index = -1;
  std::size_t num_subsets = 0;  // 2^m - 1 nonempty XOR-subsets
  /// Union of the member functions' variable supports — a structural upper
  /// bound on every coordinate the observable's spectra can touch
  /// (serialized since SANIBAS v2; on a v1 load it is recomputed from the
  /// spectra when they are present).
  Mask support;
};

/// Which representations the Basis must carry (from the backend registry).
struct BasisNeeds {
  bool spectra = true;          // flat base spectra (LIL/MAP/MAPI/DIRECT)
  bool lil = false;             // sorted-list copies (LIL only)
  bool frozen_fns = false;      // freeze the XOR-subset BDDs (FUJITA)
  bool frozen_spectra = false;  // freeze the base-spectrum ADDs (MAPI)
};

/// Per-observable structural cone digests (circuit/cone_hash.h) plus the
/// varmap role fingerprint they are relative to.  `available` is false on a
/// Basis deserialized from a pre-v3 SANIBAS artifact, in which case the
/// incremental scan path falls back to a cold run.
struct ConeIndex {
  bool available = false;
  std::vector<circuit::ConeDigest> digests;  // parallel to Basis::obs
  circuit::ConeDigest varmap;
};

/// The per-(gadget, probe model) prepared artifact: for every observable,
/// the Walsh spectra of all nonempty XOR-subsets of its member functions
/// (a single function in the standard model; the glitch-cone tuple in the
/// robust model).  Immutable after build_basis(); shareable across threads.
struct Basis {
  circuit::VarMap vars;    // value copy — no manager reference
  Mask relevant_publics;   // public coordinates some observable touches
  std::vector<ObservableInfo> obs;
  std::size_t num_outputs = 0;

  /// Cone digests for incremental re-verification (verify/incremental.h).
  ConeIndex cones;

  /// flat[i][s] = Walsh spectrum of XOR-subset s of observable i, in the
  /// contiguous coordinate-sorted representation the scan engines convolve
  /// against (spectral/flat_spectrum.h).
  std::vector<std::vector<spectral::FlatSpectrum>> flat;
  /// Sorted-list mirror of `flat` (built only when BasisNeeds::lil).
  std::vector<std::vector<spectral::LilSpectrum>> lil;

  /// Manager-free snapshot of the decision-diagram material the ADD engines
  /// verify against (empty for the scan engines).  Workers thaw it with
  /// dd::Manager::import_forest.
  dd::FrozenForest frozen;
  /// frozen_fn_roots[i][s] = index into frozen.roots of XOR-subset s of
  /// observable i's member-function BDD (built when BasisNeeds::frozen_fns).
  std::vector<std::vector<std::size_t>> frozen_fn_roots;
  /// Same indexing for the base-spectrum ADDs (BasisNeeds::frozen_spectra).
  std::vector<std::vector<std::size_t>> frozen_spectrum_roots;

  /// Total nonzero base coefficients (counted once, at build time).
  std::uint64_t base_coefficients = 0;
  /// Wall-clock cost of the build (the "base" phase, paid once).
  double build_seconds = 0.0;

  std::size_t size() const { return obs.size(); }
};

/// Visits the 2^m - 1 nonempty XOR-subsets of an observable's member
/// functions — the one subset-enumeration loop shared by the basis build
/// and the FUJITA backend's manager-bound base.
template <typename Fn>
void for_each_xor_subset(const Observable& o, dd::Manager& manager, Fn&& fn) {
  const std::size_t m = o.fns.size();
  for (std::size_t sel = 1; sel < (std::size_t{1} << m); ++sel) {
    dd::Bdd x = dd::Bdd::zero(manager);
    for (std::size_t j = 0; j < m; ++j)
      if (sel & (std::size_t{1} << j)) x ^= o.fns[j];
    fn(x);
  }
}

/// Builds the prepared artifact from an unfolded gadget ("base" phase).
std::shared_ptr<const Basis> build_basis(const circuit::Unfolded& unfolded,
                                         const ObservableSet& observables,
                                         const BasisNeeds& needs);

/// Same, with the needs derived from the engine's registry entry.
std::shared_ptr<const Basis> build_basis(const circuit::Unfolded& unfolded,
                                         const ObservableSet& observables,
                                         EngineKind engine);

}  // namespace sani::verify
