#pragma once
// Fujita backend: transform the XOR-combination directly.
//
// The base XOR-subsets are plain BDDs in the worker's manager; pushing an
// observable XORs the subset function into the running combination and runs
// the Fujita spectral transform, so no convolution happens at all.  The
// shared Basis carries the subset functions as a frozen forest
// (Basis::frozen_fn_roots); the Driver thaws them into this worker's
// manager and prepare() merely indexes the handles — no unfolding replay.

#include "dd/add.h"
#include "verify/backends/backend.h"

namespace sani::verify {

class FujitaBackend : public Backend {
 public:
  explicit FujitaBackend(const BackendContext& ctx);

  void prepare() override;
  void push(const std::vector<int>& path) override;
  void pop() override;
  std::optional<Mask> check_rows(const RowCheckQuery& q) override;
  void accumulate_deps(std::vector<Mask>& V) override;

 private:
  struct Row {
    dd::Bdd fn;
    dd::Add spectrum;
  };
  using RowSet = std::vector<Row>;

  std::shared_ptr<const Basis> basis_;
  dd::Manager* manager_;
  const std::vector<dd::Add>* thawed_;
  dd::Bdd rho0_;
  PhaseTimers& timers_;
  std::uint64_t& coefficients_;
  std::vector<std::vector<dd::Bdd>> base_;
  std::vector<RowSet> rows_;  // one row set per stack depth
};

}  // namespace sani::verify
