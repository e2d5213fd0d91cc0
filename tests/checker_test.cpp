#include <gtest/gtest.h>

#include <set>

#include "circuit/builder.h"
#include "circuit/unfold.h"
#include "test_util.h"
#include "verify/checker.h"

namespace sani::verify {
namespace {

using test::Rng;

// Fixture: 2 secrets x 3 shares, 3 randoms, 1 public = 10 variables.
circuit::Gadget fixture() {
  circuit::GadgetBuilder b("fix");
  auto a = b.secret("a", 3);
  auto bb = b.secret("b", 3);
  auto r = b.randoms("r", 3);
  b.public_input("p");
  circuit::WireId t = b.xor_(b.and_(a[0], bb[0]), r[0]);
  t = b.xor_(t, r[1]);
  b.output_group("c", {t, b.xor_(a[1], bb[1]), b.xor_(a[2], r[2])});
  return b.build();
}

class RegionEquivalence
    : public ::testing::TestWithParam<std::tuple<Notion, bool, int>> {};

// The ForbiddenRegion enumeration and Checker::coefficient_violates are two
// formulations of the same T matrix: a coordinate is enumerated by the
// region iff the checker flags it (restricted to the rho = 0 slice the
// region spans).  Exhaustive over the full 2^10 coordinate space.
TEST_P(RegionEquivalence, RegionMatchesCoefficientPredicate) {
  auto [notion, joint, internal] = GetParam();
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker checker(vars, notion, joint);

  RowContext row;
  row.num_observables = 3;
  row.num_internal = internal;
  row.num_outputs = 3 - internal;
  for (int i = 0; i < row.num_outputs; ++i)
    row.output_mask |= std::uint64_t{1} << i;

  // The fixture's public never feeds logic, but the region should still
  // honour an explicit extra-variable request.
  ForbiddenRegion region(checker, vars, row, vars.public_vars);

  // Collect the region's coordinates.
  std::set<std::uint64_t> enumerated;
  Mask witness;
  region.find_violation(
      [&](const Mask& alpha) {
        enumerated.insert(alpha.lo);
        return false;  // never "hit": we want the full enumeration
      },
      &witness);

  for (std::uint64_t bits = 0; bits < (1u << vars.num_vars); ++bits) {
    Mask alpha{bits, 0};
    const bool flagged = checker.coefficient_violates(alpha, row);
    const bool in_region = enumerated.count(bits) > 0;
    if (alpha.intersects(vars.random_vars)) {
      // rho != 0: outside the region by construction, and never a
      // violation for the checker either.
      EXPECT_FALSE(flagged) << alpha.to_string();
      EXPECT_FALSE(in_region) << alpha.to_string();
    } else {
      EXPECT_EQ(in_region, flagged)
          << alpha.to_string() << " notion=" << notion_name(notion)
          << " joint=" << joint << " internal=" << internal;
    }
  }

  EXPECT_EQ(region.empty(), enumerated.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllNotions, RegionEquivalence,
    ::testing::Combine(::testing::Values(Notion::kProbing, Notion::kNI,
                                         Notion::kSNI, Notion::kPINI),
                       ::testing::Bool(), ::testing::Values(0, 1, 3)));

TEST(Region, SpaceSizeAndLimit) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker checker(vars, Notion::kSNI);
  RowContext row;
  row.num_observables = 1;
  row.num_internal = 1;
  ForbiddenRegion region(checker, vars, row, Mask{});
  EXPECT_EQ(region.space_size(), 64u);  // 6 share bits, publics excluded
}

TEST(Region, EarlyExitReturnsWitness) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker checker(vars, Notion::kSNI);
  RowContext row;
  row.num_observables = 2;
  row.num_internal = 0;  // threshold 0: any share coordinate is forbidden
  ForbiddenRegion region(checker, vars, row, Mask{});
  Mask witness;
  std::uint64_t visited = 0;
  const Mask target = vars.secret_vars[0] & Mask::first_n(64);
  bool hit = region.find_violation(
      [&](const Mask& alpha) { return alpha == Mask::bit(target.lowest_bit()); },
      &witness, &visited);
  EXPECT_TRUE(hit);
  EXPECT_EQ(witness, Mask::bit(target.lowest_bit()));
  EXPECT_GT(visited, 0u);
}

TEST(Checker, ThresholdsByNotion) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  RowContext row;
  row.num_observables = 3;
  row.num_internal = 1;
  EXPECT_EQ(Checker(vars, Notion::kNI).threshold(row), 3);
  EXPECT_EQ(Checker(vars, Notion::kSNI).threshold(row), 1);
}

TEST(Checker, UnionViolationMessages) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Checker sni(vars, Notion::kSNI);
  RowContext row;
  row.num_observables = 2;
  row.num_internal = 1;
  Mask V = vars.secret_vars[0];  // all three shares of secret 0
  std::string reason;
  EXPECT_TRUE(sni.union_violates(V, row, &reason));
  EXPECT_NE(reason.find("3 shares"), std::string::npos);
  V = Mask::bit(vars.secret_share_var[0][0]);
  EXPECT_FALSE(sni.union_violates(V, row, &reason));
}

// The set-level check as it stood with one dependency mask per secret:
// V[i] holds secret i's shares only.
bool per_secret_union_violates(const circuit::VarMap& vars, Notion notion,
                               bool joint, const std::vector<Mask>& V,
                               const RowContext& row, std::string* reason) {
  const int t = notion == Notion::kNI ? row.num_observables : row.num_internal;
  Mask all;
  for (const Mask& v : V) all |= v;
  if (notion == Notion::kPINI) {
    int extra = 0;
    for (std::size_t j = 0; j < vars.secret_share_var.front().size(); ++j) {
      if ((row.output_mask >> j) & 1) continue;
      for (const auto& group : vars.secret_share_var)
        if (all.test(group[j])) {
          ++extra;
          break;
        }
    }
    if (extra <= row.num_internal) return false;
    *reason = "observations touch " + std::to_string(extra) +
              " share indices beyond the probed outputs, but only " +
              std::to_string(row.num_internal) +
              " internal probes were placed (PINI)";
    return true;
  }
  if (joint) {
    if (all.popcount() <= t) return false;
    *reason = "joint distribution depends on " +
              std::to_string(all.popcount()) +
              " input shares in total but only " + std::to_string(t) +
              " are allowed (" + notion_name(notion) + ", joint counting)";
    return true;
  }
  for (std::size_t i = 0; i < V.size(); ++i)
    if (V[i].popcount() > t) {
      *reason = "joint distribution depends on " +
                std::to_string(V[i].popcount()) + " shares of secret " +
                std::to_string(i) + " but only " + std::to_string(t) +
                " are allowed (" + notion_name(notion) + ")";
      return true;
    }
  return false;
}

// One share-space mask is lossless: the secrets' share groups are
// disjoint, so splitting it by group gives back the per-secret masks, and
// with them the same verdict and the same reason string.
TEST(Checker, OneMaskMatchesPerSecretMasks) {
  circuit::Gadget g = fixture();
  circuit::VarMap vars = circuit::make_var_map(g);
  Rng rng(17);
  struct Case {
    Notion notion;
    bool joint;
  };
  int violations = 0;
  for (const Case c : {Case{Notion::kNI, false}, Case{Notion::kSNI, false},
                       Case{Notion::kSNI, true}, Case{Notion::kPINI, false}}) {
    const Checker checker(vars, c.notion, c.joint);
    for (int trial = 0; trial < 500; ++trial) {
      const Mask V = Mask{rng.next(), 0} & vars.share_vars;
      std::vector<Mask> per_secret;
      for (const Mask& group : vars.secret_vars)
        per_secret.push_back(V & group);
      RowContext row;
      const int size = 1 + static_cast<int>(rng.next() % 3);
      for (int i = 0; i < size; ++i)
        row.add(rng.next() % 2 == 0, static_cast<int>(rng.next() % 3));
      std::string want, got;
      const bool expected = per_secret_union_violates(
          vars, c.notion, c.joint, per_secret, row, &want);
      ASSERT_EQ(checker.union_violates(V, row, &got), expected)
          << notion_name(c.notion) << " joint=" << c.joint
          << " V=" << V.to_string();
      EXPECT_EQ(got, want);
      violations += expected;
    }
  }
  EXPECT_GT(violations, 100);
}

}  // namespace
}  // namespace sani::verify
