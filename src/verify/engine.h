#pragma once
// The verification driver (Fig. 5 of the paper).
//
// Pipeline: unfold the circuit (probes as BDDs) -> enumerate combinations of
// outputs/probes up to size d -> compute the Walsh spectrum of every
// XOR-combination (convolution of base spectra, or a direct Fujita
// transform) -> test the interference predicate.  Five interchangeable
// engines: the production default and the four representation choices the
// paper compares in Tables I/II:
//
//   DIRECT — flat convolution, one coefficient-check pass per row (default;
//            `auto` resolves to it)
//   LIL    — list-of-lists spectra, list-scan verification  (TCHES'20 [11])
//   MAP    — flat spectra, map-scan verification
//   MAPI   — flat convolution + ADD verification            (the paper)
//   FUJITA — per-combination Fujita transform + ADD verification
//
// All five return identical verdicts and witness combinations (asserted by
// the cross-engine tests); they differ only in where the time goes.

#include <memory>

#include "circuit/spec.h"
#include "circuit/unfold.h"
#include "verify/basis.h"
#include "verify/observables.h"
#include "verify/types.h"

namespace sani::sched {
class CancelToken;
}

namespace sani::verify {

/// The unfolding verify() runs: the configured variable order and sifting,
/// and for DIRECT (which owns no verification manager) a computed table
/// sized from the netlist (suggest_unfold_cache_bits); the paper's engines
/// keep options.cache_bits.
circuit::Unfolded unfold_for(const circuit::Gadget& gadget,
                             const VerifyOptions& options);

/// Unfolds `gadget`, builds the observable universe and decides the notion
/// on options.jobs workers (verify/parallel.h): same verdict, same witness,
/// same deterministic report for any worker count.
VerifyResult verify(const circuit::Gadget& gadget, const VerifyOptions& options);

/// Same, over a pre-built unfolding and observable set (used to analyse
/// fixed probe configurations such as the Fig. 1 composition example, and
/// to amortize unfolding across engines in the benchmarks).  Every engine
/// honors options.jobs here: the prepared Basis is manager-independent for
/// all of them — the ADD engines' decision-diagram material travels as a
/// frozen forest that each worker thaws into its private manager.
VerifyResult verify_prepared(const circuit::Unfolded& unfolded,
                             const ObservableSet& observables,
                             const VerifyOptions& options);

struct IncrementalContext;

/// Runs verification directly over a prepared shared Basis — the bottom
/// half of the pipeline, and the warm-start entry point of the artifact
/// store (src/store): a Basis deserialized from disk goes straight to the
/// shard executor.  No parse, unfold, basis_build or freeze happens here;
/// verdict, witness and stats are identical to a cold run over the same
/// Basis content.
///
/// `cancel` optionally supplies an external cancellation token (the sanid
/// daemon cancels abandoned requests through it); when given, the
/// options.time_limit deadline is armed on it, and cancel()ing it stops the
/// run cooperatively at the next combination boundary.  nullptr keeps the
/// executor's own token (plain CLI behavior).
///
/// `ctx` threads the diff-aware incremental hooks through to the Drivers:
/// replay against ctx->plan, record outcomes into ctx->collector, and merge
/// the union-check dependency store into ctx->deps_out (see
/// verify/incremental.h).  The artifact store's verify_with_store is the
/// production caller; nullptr (or an all-null ctx) is a cold run.
VerifyResult verify_basis(std::shared_ptr<const Basis> basis,
                          const VerifyOptions& options,
                          sched::CancelToken* cancel = nullptr,
                          const IncrementalContext* ctx = nullptr);

}  // namespace sani::verify
