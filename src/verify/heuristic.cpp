#include "verify/heuristic.h"

#include <set>
#include <vector>

#include "dd/anf.h"
#include "sched/cancel.h"
#include "util/combinations.h"
#include "obs/clock.h"
#include "verify/checker.h"

namespace sani::verify {

namespace {

/// Applies optimistic sampling until fixpoint: removes expressions of the
/// form r XOR g where random r occurs in no other expression of the tuple.
void simplify(std::vector<dd::Bdd>& exprs, const Mask& random_vars,
              dd::Manager& m) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Mask> supports;
    supports.reserve(exprs.size());
    for (const auto& e : exprs) supports.push_back(e.support());

    for (std::size_t i = 0; i < exprs.size() && !changed; ++i) {
      Mask own_randoms = supports[i] & random_vars;
      Mask others;
      for (std::size_t j = 0; j < exprs.size(); ++j)
        if (j != i) others |= supports[j];
      Mask candidates = own_randoms - others;
      bool removed = false;
      candidates.for_each_bit([&](int r) {
        if (removed) return;
        // e = r XOR g  <=>  e XOR r does not depend on r.
        dd::Bdd g = exprs[i] ^ dd::Bdd::var(m, r);
        if (!g.support().test(r)) {
          exprs.erase(exprs.begin() + static_cast<std::ptrdiff_t>(i));
          removed = true;
        }
      });
      if (removed) changed = true;
    }
  }
}

/// Exact decision for all-affine tuples — the reason maskVerif is "sound
/// and complete for linear systems".  Extracts each expression's linear
/// form, Gaussian-eliminates the random coordinates (a pivot row is masked
/// by a fresh uniform random, hence simulatable and droppable), and decides
/// the notion from the random-free residual span.
/// Returns true if it decided (writing the verdict to *secure).
bool decide_affine_exact(const std::vector<dd::Bdd>& exprs,
                         const circuit::VarMap& vars, const Checker& checker,
                         const RowContext& row, dd::Manager& m,
                         bool* secure) {
  for (const auto& e : exprs)
    if (dd::algebraic_degree(e) > 1) return false;

  // Linear coefficient vectors: coeff(v) = e(e_v) XOR e(0).
  std::vector<Mask> rows;
  for (const auto& e : exprs) {
    const bool c0 = e.eval(Mask{});
    Mask coeffs;
    e.support().for_each_bit([&](int v) {
      if (e.eval(Mask::bit(v)) != c0) coeffs.set(v);
    });
    rows.push_back(coeffs);
  }

  // Eliminate random coordinates.
  vars.random_vars.for_each_bit([&](int r) {
    std::size_t pivot = rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i)
      if (rows[i].test(r)) {
        pivot = i;
        break;
      }
    if (pivot == rows.size()) return;
    for (std::size_t i = 0; i < rows.size(); ++i)
      if (i != pivot && rows[i].test(r)) rows[i] ^= rows[pivot];
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(pivot));
  });
  // Drop zero rows; what remains is the deterministic leakage span.
  std::vector<Mask> basis;
  for (const Mask& r : rows)
    if ((r & (vars.share_vars | vars.public_vars)).any()) basis.push_back(r);

  if (checker.notion() == Notion::kProbing) {
    if (basis.size() > 20) return false;  // combo enumeration too wide
    // Leak iff some nonzero combination's share support is a nonempty union
    // of COMPLETE groups (partial groups average out over the sharing).
    for (std::uint64_t sel = 1; sel < (std::uint64_t{1} << basis.size());
         ++sel) {
      Mask combo;
      for (std::size_t i = 0; i < basis.size(); ++i)
        if ((sel >> i) & 1) combo ^= basis[i];
      bool some_full = false;
      bool all_clean = true;
      for (const Mask& group : vars.secret_vars) {
        const Mask touched = combo & group;
        if (touched.empty()) continue;
        if (touched != group) {
          all_clean = false;
          break;
        }
        some_full = true;
      }
      if (all_clean && some_full) {
        *secure = false;
        return true;
      }
    }
    *secure = true;
    return true;
  }

  // NI / SNI / PINI: the dependency set is exactly the span's support union
  // (each basis row is itself an observable combination).
  Mask V;
  for (const Mask& r : basis) V |= r & vars.share_vars;
  *secure = !checker.union_violates(V, row, nullptr);
  (void)m;
  return true;
}

}  // namespace

HeuristicResult verify_heuristic_prepared(const circuit::Unfolded& unfolded,
                                          const ObservableSet& obs,
                                          const VerifyOptions& options) {
  Stopwatch watch;
  HeuristicResult result;
  dd::Manager& m = *unfolded.manager;
  const circuit::VarMap& vars = unfolded.vars;
  const Checker checker(vars, options.notion, options.joint_share_count);
  const int N = static_cast<int>(obs.size());

  sched::CancelToken deadline;
  if (options.time_limit > 0) deadline.set_deadline_after(options.time_limit);

  for (int k = options.order; k >= 1; --k) {
    CombinationIter it(N, k);
    if (!it.valid()) continue;
    do {
      if (deadline.expired()) {
        result.timed_out = true;
        deadline.acknowledge();
        result.seconds = watch.seconds();
        return result;
      }
      ++result.combinations;
      const auto& combo = it.indices();

      RowContext row;
      std::vector<dd::Bdd> exprs;
      for (int i : combo) {
        const Observable& o = obs.items[i];
        row.add(o.kind == Observable::Kind::kOutput, o.output_share_index);
        exprs.insert(exprs.end(), o.fns.begin(), o.fns.end());
      }

      simplify(exprs, vars.random_vars, m);

      // All-affine residual tuples are decided exactly (linear algebra) —
      // the completeness-on-linear-systems property maskVerif documents.
      bool exact_secure = false;
      if (decide_affine_exact(exprs, vars, checker, row, m, &exact_secure)) {
        if (!exact_secure) ++result.inconclusive;
        continue;
      }

      Mask support;
      for (const auto& e : exprs) support |= e.support();

      bool proved = true;
      switch (options.notion) {
        case Notion::kProbing:
          for (const auto& group : vars.secret_vars)
            if ((support & group) == group && !group.empty()) proved = false;
          break;
        case Notion::kNI:
        case Notion::kSNI: {
          const int t = options.notion == Notion::kNI ? row.num_observables
                                                      : row.num_internal;
          if (options.joint_share_count) {
            if ((support & vars.share_vars).popcount() > t) proved = false;
          } else {
            for (const auto& group : vars.secret_vars)
              if ((support & group).popcount() > t) proved = false;
          }
          break;
        }
        case Notion::kPINI: {
          std::set<int> touched;
          for (std::size_t i = 0; i < vars.secret_share_var.size(); ++i)
            for (std::size_t j = 0; j < vars.secret_share_var[i].size(); ++j)
              if (support.test(vars.secret_share_var[i][j]))
                touched.insert(static_cast<int>(j));
          int extra = 0;
          for (int j : touched)
            if (!((row.output_mask >> j) & 1)) ++extra;
          if (extra > row.num_internal) proved = false;
          break;
        }
      }
      if (!proved) ++result.inconclusive;
    } while (it.next());
  }

  result.proven_secure = result.inconclusive == 0;
  result.seconds = watch.seconds();
  return result;
}

HeuristicResult verify_heuristic(const circuit::Gadget& gadget,
                                 const VerifyOptions& options) {
  circuit::Unfolded unfolded = circuit::unfold(gadget, options.cache_bits);
  ObservableSet obs = build_observables(gadget, unfolded, options.probes);
  return verify_heuristic_prepared(unfolded, obs, options);
}

}  // namespace sani::verify
