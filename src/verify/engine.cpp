#include "verify/engine.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "verify/parallel.h"
#include "verify/portfolio.h"

namespace sani::verify {

VerifyResult verify_basis(std::shared_ptr<const Basis> basis,
                          const VerifyOptions& options,
                          sched::CancelToken* cancel,
                          const IncrementalContext* ctx) {
  if (options.order < 1)
    throw std::invalid_argument("verify: order must be >= 1");
  // Resolve before any engine-dependent construction: the Drivers hold the
  // options by reference and the backend registry has no kAuto entry.
  VerifyOptions resolved = options;
  resolved.engine = resolve_engine(options.engine);
  return run_shards(std::move(basis), resolved, cancel, ctx);
}

VerifyResult verify_prepared(const circuit::Unfolded& unfolded,
                             const ObservableSet& observables,
                             const VerifyOptions& options) {
  if (options.order < 1)
    throw std::invalid_argument("verify: order must be >= 1");
  return verify_basis(build_basis(unfolded, observables, options.engine),
                      options);
}

void check_input_limit(const circuit::Gadget& gadget) {
  const std::size_t inputs = gadget.netlist.inputs().size();
  if (inputs > static_cast<std::size_t>(kMaxInputs))
    throw InputLimitError(
        "gadget has " + std::to_string(inputs) + " primary inputs; at most " +
        std::to_string(kMaxInputs) +
        " are supported (Walsh coefficients reach 2^inputs and must fit "
        "int64)");
}

circuit::Unfolded unfold_for(const circuit::Gadget& gadget,
                             const VerifyOptions& options) {
  check_input_limit(gadget);
  // DIRECT verifies without a manager, so only the unfolding needs one:
  // size its table from the netlist.  The paper's engines keep the
  // configured size (their baseline columns stay comparable).
  const int bits = resolve_engine(options.engine) == EngineKind::kDIRECT
                       ? suggest_unfold_cache_bits(gadget, options.cache_bits)
                       : options.cache_bits;
  circuit::Unfolded unfolded = circuit::unfold(gadget, bits, options.var_order);
  if (options.sift_after_unfold) unfolded.manager->reorder_sift();
  return unfolded;
}

VerifyResult verify(const circuit::Gadget& gadget,
                    const VerifyOptions& options, sched::CancelToken* cancel) {
  const circuit::Unfolded unfolded = unfold_for(gadget, options);
  ObservableSet obs = build_observables(gadget, unfolded, options.probes);
  return verify_basis(build_basis(unfolded, obs, options.engine), options,
                      cancel);
}

}  // namespace sani::verify
