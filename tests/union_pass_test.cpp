// Oracle test of the set-level union pass (verify/partial.h union_pass, run
// by ReportAssembler::finalize).  Seeded random dependency tables are cut
// into shards, folded through ReportAssembler partials in a shuffled order,
// and the finalized verdict is compared with the direct definition: walk
// every recorded combination Q in lexicographic order, OR the recorded
// masks of all 2^|Q| - 1 nonempty sub-combinations, and report the first Q
// that fails Checker::union_violates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "util/combinations.h"
#include "util/mask.h"
#include "verify/backends/map_backend.h"
#include "verify/basis.h"
#include "verify/checker.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/partial.h"
#include "verify/types.h"

namespace sani::verify {
namespace {

/// The RowContext of a combination, from its observables' kinds (the
/// Driver keeps the same value on a stack along its prefix path).
RowContext context_for_combo(const Basis& basis, const std::vector<int>& combo) {
  RowContext row;
  for (int i : combo) {
    const ObservableInfo& o = basis.obs[static_cast<std::size_t>(i)];
    row.add(o.kind == Observable::Kind::kOutput, o.output_share_index);
  }
  return row;
}

struct Instance {
  std::shared_ptr<Basis> basis;
  VerifyOptions options;
  // own[k][rank]: the mask recorded for the size-k combination `rank`.
  std::map<int, std::vector<Mask>> own;
};

/// A random instance whose table covers sizes 1..order.
Instance random_instance(std::uint32_t seed, int order) {
  std::mt19937 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Instance in;
  auto basis = std::make_shared<Basis>();
  const int S = pick(1, 3);
  const int d = pick(1, 4);  // shares per secret
  circuit::VarMap& vars = basis->vars;
  vars.secret_vars.assign(static_cast<std::size_t>(S), Mask{});
  vars.secret_share_var.assign(static_cast<std::size_t>(S), {});
  for (int s = 0; s < S; ++s)
    for (int j = 0; j < d; ++j) {
      const int v = s * d + j;
      vars.secret_vars[static_cast<std::size_t>(s)].set(v);
      vars.secret_share_var[static_cast<std::size_t>(s)].push_back(v);
      vars.share_vars.set(v);
    }
  vars.random_vars = Mask::bit(S * d) | Mask::bit(S * d + 1);
  vars.num_vars = S * d + 2;

  const int N = pick(order, 9);
  for (int i = 0; i < N; ++i) {
    ObservableInfo o;
    o.name = "o" + std::to_string(i);
    if (pick(0, 2) == 0) {
      o.kind = Observable::Kind::kOutput;
      o.output_group = 0;
      o.output_share_index = pick(0, d - 1);
      ++basis->num_outputs;
    } else {
      o.kind = Observable::Kind::kProbe;
    }
    basis->obs.push_back(o);
  }

  VerifyOptions& opt = in.options;
  constexpr Notion kNotions[] = {Notion::kNI, Notion::kSNI, Notion::kPINI};
  opt.notion = kNotions[pick(0, 2)];
  opt.order = order;
  opt.joint_share_count = opt.notion != Notion::kPINI && pick(0, 3) == 0;
  opt.search_order =
      pick(0, 1) ? SearchOrder::kLargestFirst : SearchOrder::kDepthFirst;
  opt.engine = EngineKind::kDIRECT;

  // Sparse own masks, so that secure and insecure tables both occur and
  // the closure (not Q's own masks) often decides.
  constexpr int kPercent[] = {2, 5, 10, 25};
  const int percent = kPercent[pick(0, 3)];
  for (int k = 1; k <= opt.order; ++k) {
    std::vector<Mask>& table = in.own[k];
    table.resize(binomial(N, k));
    for (Mask& V : table)
      for (int v = 0; v < S * d; ++v)
        if (pick(0, 99) < percent) V.set(v);
  }
  in.basis = std::move(basis);
  return in;
}

/// The pre-closure union pass: every recorded Q in lexicographic vector
/// order, V(Q) the OR over all nonempty sub-combinations' recorded masks.
VerifyResult reference_union_pass(const Instance& in) {
  const Basis& basis = *in.basis;
  const int N = static_cast<int>(basis.size());
  const Checker checker(basis.vars, in.options.notion,
                        in.options.joint_share_count);
  std::vector<std::vector<int>> combos;
  for (int k = 1; k <= in.options.order; ++k) {
    CombinationIter it(N, k);
    do combos.push_back(it.indices());
    while (it.next());
  }
  std::sort(combos.begin(), combos.end());
  VerifyResult result;
  for (const std::vector<int>& q : combos) {
    Mask V;
    const std::size_t k = q.size();
    for (std::size_t sel = 1; sel < (std::size_t{1} << k); ++sel) {
      std::vector<int> sub;
      for (std::size_t j = 0; j < k; ++j)
        if (sel & (std::size_t{1} << j)) sub.push_back(q[j]);
      V |= in.own.at(static_cast<int>(sub.size()))[combination_rank(N, sub)];
    }
    std::string reason;
    if (checker.union_violates(V, context_for_combo(basis, q), &reason)) {
      result.secure = false;
      CounterExample ce;
      for (int i : q)
        ce.observables.push_back(basis.obs[static_cast<std::size_t>(i)].name);
      ce.alpha = V;
      ce.reason = "set-level dependency check failed: " + reason;
      result.counterexample = std::move(ce);
      return result;
    }
  }
  return result;
}

/// The table cut into random shards, folded in a shuffled order.
VerifyResult assembled_union_pass(const Instance& in, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<PartialReport> parts;
  for (const auto& [k, table] : in.own) {
    std::uint64_t begin = 0;
    while (begin < table.size()) {
      const std::uint64_t end = std::min<std::uint64_t>(
          table.size(), begin + 1 + rng() % (table.size() / 2 + 1));
      PartialReport p;
      p.k = k;
      p.begin = begin;
      p.end = end;
      p.covered_end = end;
      p.complete = true;
      p.combinations = end - begin;
      p.deps.assign(table.begin() + static_cast<std::ptrdiff_t>(begin),
                    table.begin() + static_cast<std::ptrdiff_t>(end));
      parts.push_back(std::move(p));
      begin = end;
    }
  }
  std::shuffle(parts.begin(), parts.end(), rng);
  ReportAssembler assembler(in.basis, in.options);
  for (PartialReport& p : parts) assembler.add(std::move(p));
  return assembler.finalize();
}

TEST(UnionPass, ClosureMatchesTheSubCombinationWalk) {
  // Every order 1..4 in turn.  The pass keeps each combination's sub-ranks
  // across steps that advance only the last element and re-ranks them when
  // the last element wraps, so the tallies make sure that insecure tables
  // occur at every order and that witnesses sit both right after a wrap
  // and mid-run.
  constexpr int kOrders = 4;
  int insecure[kOrders + 1] = {};
  int secure[kOrders + 1] = {};
  int after_wrap = 0;  // witness Q reached by moving an earlier element
  int mid_run = 0;     // witness Q reached by moving only the last element
  constexpr std::uint32_t kSeeds = 400;
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    const int order = 1 + static_cast<int>(seed % kOrders);
    const Instance in = random_instance(seed, order);
    const VerifyResult want = reference_union_pass(in);
    const VerifyResult got = assembled_union_pass(in, seed * 7919 + 1);
    const std::string ctx = "seed " + std::to_string(seed) + " N=" +
                            std::to_string(in.basis->size()) + " order=" +
                            std::to_string(in.options.order) + " " +
                            notion_name(in.options.notion);
    ASSERT_FALSE(got.timed_out) << ctx;
    ASSERT_EQ(got.secure, want.secure) << ctx;
    std::uint64_t entries = 0;
    for (const auto& [k, table] : in.own) entries += table.size();
    EXPECT_EQ(got.stats.qinfo_entries, entries) << ctx;
    EXPECT_GT(got.stats.qinfo_peak_bytes, 0u) << ctx;
    if (want.secure) {
      ++secure[order];
      continue;
    }
    ++insecure[order];
    ASSERT_TRUE(got.counterexample.has_value()) << ctx;
    EXPECT_EQ(got.counterexample->observables, want.counterexample->observables)
        << ctx;
    EXPECT_EQ(got.counterexample->alpha, want.counterexample->alpha) << ctx;
    EXPECT_EQ(got.counterexample->reason, want.counterexample->reason) << ctx;
    // Observable i is named "o<i>"; a size-k witness other than {0..k-1}
    // follows a wrap exactly when its last two elements are adjacent.
    std::vector<int> q;
    for (const std::string& name : want.counterexample->observables)
      q.push_back(std::stoi(name.substr(1)));
    const std::size_t k = q.size();
    if (k >= 2 && q.back() != static_cast<int>(k) - 1)
      ++(q[k - 1] == q[k - 2] + 1 ? after_wrap : mid_run);
  }
  for (int order = 1; order <= kOrders; ++order) {
    SCOPED_TRACE("order " + std::to_string(order));
    EXPECT_GT(insecure[order], 5);
    EXPECT_GT(secure[order], 5);
  }
  EXPECT_GT(after_wrap, 5);
  EXPECT_GT(mid_run, 5);
}

// DIRECT ORs each random-free coefficient into V during its one check pass;
// the paper's engines take V from a second pass (accumulate_deps) over the
// same rows.  On every registry gadget, under standard and glitch-robust
// probes, the two must give the same V for every passing combination.
TEST(OnePassDeps, DirectMatchesTheSecondPassOnEveryRegistryGadget) {
  for (const bool robust : {false, true}) {
    for (const std::string& name : gadgets::all_names()) {
      SCOPED_TRACE(name + (robust ? " robust" : " standard"));
      VerifyOptions opt;
      opt.probes.glitch_robust = robust;
      const circuit::Gadget gadget = gadgets::by_name(name);
      const circuit::Unfolded unfolded = unfold_for(gadget, opt);
      const ObservableSet observables =
          build_observables(gadget, unfolded, opt.probes);
      const std::shared_ptr<const Basis> basis =
          build_basis(unfolded, observables, EngineKind::kDIRECT);
      const int N = static_cast<int>(basis->size());
      const int order = std::min({2, N, gadgets::security_level(name)});
      const Checker checker(basis->vars, Notion::kProbing);
      std::uint64_t coefficients = 0;
      spectral::ArenaStats arena;
      BackendContext ctx;
      ctx.basis = basis;
      ctx.coefficients = &coefficients;
      ctx.arena_stats = &arena;
      ctx.order = order;
      MapBackend backend(ctx, MapBackend::Check::kDirect);
      backend.prepare();
      int compared = 0;
      for (int k = 1; k <= order; ++k) {
        // At most ~400 combinations per size class, spread over the ranks.
        const std::uint64_t total = binomial(N, k);
        const std::uint64_t stride = std::max<std::uint64_t>(1, total / 400);
        for (std::uint64_t rank = 0; rank < total; rank += stride) {
          const std::vector<int> combo = unrank_combination(N, k, rank);
          std::vector<int> path;
          for (int i : combo) {
            path.push_back(i);
            backend.push(path);
          }
          const RowContext row = context_for_combo(*basis, combo);
          RowCheckQuery q;
          q.checker = &checker;
          q.row = &row;
          Mask one_pass;
          q.deps = &one_pass;
          if (!backend.check_rows(q)) {
            Mask second_pass;
            backend.accumulate_deps(second_pass);
            ASSERT_EQ(one_pass, second_pass) << "rank " << rank << " k " << k;
            ++compared;
          }
          for (std::size_t d = 0; d < combo.size(); ++d) backend.pop();
        }
      }
      EXPECT_GT(compared, 0);
    }
  }
}

}  // namespace
}  // namespace sani::verify
