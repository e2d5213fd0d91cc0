#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/unfold.h"
#include "verify/checker.h"
#include "verify/predicate.h"

namespace sani::verify {
namespace {

// A small fixture gadget: two secrets x 2 shares, 2 randoms (8... 6 inputs).
circuit::Gadget fixture() {
  circuit::GadgetBuilder b("fix");
  auto a = b.secret("a", 2);
  auto bb = b.secret("b", 2);
  auto r = b.randoms("r", 2);
  circuit::WireId t = b.xor_(b.and_(a[0], bb[0]), r[0]);
  t = b.xor_(t, r[1]);
  b.output_group("c", {t, b.xor_(a[1], bb[1])});
  return b.build();
}

class PredicateVsChecker : public ::testing::TestWithParam<
                               std::tuple<Notion, int, bool>> {};

// The predicate BDD and the scan-side Checker must agree on every possible
// spectral coordinate — this pins the ADD engines and the scan engines to
// the same semantics.
TEST_P(PredicateVsChecker, AgreeOnAllCoordinates) {
  auto [notion, internal_probes, joint] = GetParam();
  circuit::Gadget g = fixture();
  circuit::Unfolded u = circuit::unfold(g);
  Checker checker(u.vars, notion, joint);
  PredicateBuilder preds(*u.manager, u.vars, joint);

  RowContext row;
  row.num_observables = 2;
  row.num_internal = internal_probes;
  row.num_outputs = row.num_observables - internal_probes;
  if (row.num_outputs >= 1) row.output_mask |= 1;
  if (row.num_outputs >= 2) row.output_mask |= 2;

  dd::Bdd region;
  switch (notion) {
    case Notion::kNI:
    case Notion::kSNI:
      region = preds.ni_violation(checker.threshold(row));
      break;
    case Notion::kProbing:
      region = preds.probing_violation();
      break;
    case Notion::kPINI:
      region = preds.pini_violation(row.output_mask, row.num_internal);
      break;
  }

  const int n = u.vars.num_vars;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    Mask alpha{bits, 0};
    EXPECT_EQ(region.eval(alpha), checker.coefficient_violates(alpha, row))
        << "alpha=" << alpha.to_string() << " notion=" << notion_name(notion)
        << " internal=" << internal_probes << " joint=" << joint;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNotions, PredicateVsChecker,
    ::testing::Combine(::testing::Values(Notion::kProbing, Notion::kNI,
                                         Notion::kSNI, Notion::kPINI),
                       ::testing::Values(0, 1, 2),
                       ::testing::Bool()));

TEST(Predicate, CountGe) {
  circuit::Gadget g = fixture();
  circuit::Unfolded u = circuit::unfold(g);
  PredicateBuilder preds(*u.manager, u.vars);
  std::vector<int> vars{0, 2, 4};
  dd::Bdd ge2 = preds.count_ge(vars, 2);
  int count = 0;
  for (std::uint64_t bits = 0; bits < 64; ++bits) {
    Mask m{bits, 0};
    int set = 0;
    for (int v : vars)
      if (m.test(v)) ++set;
    if (ge2.eval(m)) ++count;
    EXPECT_EQ(ge2.eval(m), set >= 2);
  }
  EXPECT_GT(count, 0);
  EXPECT_TRUE(preds.count_ge(vars, 0).is_one());
  EXPECT_TRUE(preds.count_ge(vars, 4).is_zero());
}

TEST(Predicate, RhoZeroConstrainsExactlyRandoms) {
  circuit::Gadget g = fixture();
  circuit::Unfolded u = circuit::unfold(g);
  PredicateBuilder preds(*u.manager, u.vars);
  Mask support = preds.rho_zero().support();
  EXPECT_EQ(support, u.vars.random_vars);
}

}  // namespace
}  // namespace sani::verify
