// Tests of the flat sorted-spectrum container and its merge convolution
// kernel (src/spectral/flat_spectrum.*): canonical-form enforcement, fuzzed
// lossless round-trips against the hash-map ground truth, convolution
// equality with the reference implementation, ADD conversions, and the
// zero-per-combination-allocation property of the arena-backed scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "circuit/builder.h"
#include "circuit/unfold.h"
#include "dd/bdd.h"
#include "dd/manager.h"
#include "dd/walsh.h"
#include "gadgets/registry.h"
#include "spectral/flat_spectrum.h"
#include "spectral/spectrum.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/observables.h"

namespace sani::spectral {
namespace {

// Deterministic xorshift sampler (the freeze_test idiom) — no wall-clock or
// std::random seeds anywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed | 1) {}
  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

 private:
  std::uint64_t state_;
};

// A random *valid* spectrum: the Walsh spectrum of a random truth table
// (Parseval holds, convolutions scale exactly).
Spectrum random_spectrum(int num_vars, Rng& rng) {
  return Spectrum::from_function(
      num_vars, [&](const Mask&) { return (rng.next() & 1) != 0; });
}

// A random sparse map that need NOT be a genuine spectrum — round-trip
// tests only care about content equality, so this covers shapes (empty,
// singleton, clustered) a true spectrum cannot produce.
Spectrum random_sparse_map(int num_vars, int entries, Rng& rng) {
  Spectrum s(num_vars);
  for (int i = 0; i < entries; ++i) {
    Mask alpha;
    for (int v = 0; v < num_vars; ++v)
      if (rng.next() & 1) alpha.set(v);
    const auto value =
        static_cast<std::int64_t>(rng.next() % 4096) - 2048;
    if (value != 0) s.set(alpha, value);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Round trips (satellite 2: fuzzed Spectrum <-> FlatSpectrum, including the
// empty and single-coefficient edge cases)
// ---------------------------------------------------------------------------

TEST(FlatSpectrum, RoundTripsEmptyAndSingleCoefficient) {
  {
    const Spectrum empty(5);
    const FlatSpectrum flat = FlatSpectrum::from_spectrum(empty);
    EXPECT_TRUE(flat.empty());
    EXPECT_TRUE(flat.is_canonical());
    EXPECT_TRUE(flat.to_spectrum() == empty);
  }
  {
    Spectrum one(4);
    Mask alpha;
    alpha.set(2);
    one.set(alpha, -16);
    const FlatSpectrum flat = FlatSpectrum::from_spectrum(one);
    ASSERT_EQ(flat.nonzero_count(), 1u);
    EXPECT_EQ(flat.at(alpha), -16);
    EXPECT_EQ(flat.at(Mask{}), 0);
    EXPECT_TRUE(flat.is_canonical());
    EXPECT_TRUE(flat.to_spectrum() == one);
  }
}

TEST(FlatSpectrum, FuzzRoundTripAgainstHashMapGroundTruth) {
  Rng rng(0x5EED5EED1234ull);
  for (int iter = 0; iter < 200; ++iter) {
    const int num_vars = 1 + static_cast<int>(rng.next() % 10);
    const Spectrum s = (iter % 2 == 0)
                           ? random_spectrum(num_vars, rng)
                           : random_sparse_map(
                                 num_vars,
                                 static_cast<int>(rng.next() % 40), rng);
    const FlatSpectrum flat = FlatSpectrum::from_spectrum(s);
    ASSERT_TRUE(flat.is_canonical()) << "iter " << iter;
    EXPECT_EQ(flat.nonzero_count(), s.nonzero_count()) << "iter " << iter;
    EXPECT_TRUE(flat.to_spectrum() == s) << "iter " << iter;
    // Point lookups agree everywhere on the support, and on a miss.
    for (const auto& [alpha, v] : s.coefficients())
      EXPECT_EQ(flat.at(alpha), v) << "iter " << iter;
    // support_union must match the reference for a few forbidden masks.
    for (int trial = 0; trial < 3; ++trial) {
      Mask forbidden;
      for (int v = 0; v < num_vars; ++v)
        if (rng.next() & 1) forbidden.set(v);
      EXPECT_TRUE(flat.support_union(forbidden) ==
                  s.support_union(forbidden))
          << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical-form enforcement (satellite 2)
// ---------------------------------------------------------------------------

TEST(FlatSpectrum, FromSortedAcceptsCanonicalArrays) {
  Mask a, b;
  a.set(0);
  b.set(1);  // (hi, lo) order: {} < {0} < {1}
  const FlatSpectrum s =
      FlatSpectrum::from_sorted(2, {Mask{}, a, b}, {4, -2, 2});
  EXPECT_TRUE(s.is_canonical());
  EXPECT_EQ(s.nonzero_count(), 3u);
  EXPECT_EQ(s.at(a), -2);
}

TEST(FlatSpectrum, FromSortedRejectsNonCanonicalArrays) {
  Mask a, b;
  a.set(0);
  b.set(1);
  // Length mismatch.
  EXPECT_THROW(FlatSpectrum::from_sorted(2, {a, b}, {1}),
               std::invalid_argument);
  // Unsorted.
  EXPECT_THROW(FlatSpectrum::from_sorted(2, {b, a}, {1, 2}),
               std::invalid_argument);
  // Duplicate coordinate.
  EXPECT_THROW(FlatSpectrum::from_sorted(2, {a, a}, {1, 2}),
               std::invalid_argument);
  // Zero coefficient.
  EXPECT_THROW(FlatSpectrum::from_sorted(2, {a, b}, {1, 0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Convolution vs the reference implementation
// ---------------------------------------------------------------------------

TEST(FlatSpectrum, ConvolveMatchesHashMapReference) {
  Rng rng(0xC0FFEEull);
  for (int iter = 0; iter < 60; ++iter) {
    const int num_vars = 2 + static_cast<int>(rng.next() % 8);
    const Spectrum f = random_spectrum(num_vars, rng);
    const Spectrum g = random_spectrum(num_vars, rng);
    const Spectrum want = f.convolve(g);
    const FlatSpectrum got =
        FlatSpectrum::from_spectrum(f).convolve(FlatSpectrum::from_spectrum(g));
    EXPECT_TRUE(got.is_canonical()) << "iter " << iter;
    EXPECT_TRUE(got.to_spectrum() == want)
        << "iter " << iter << " num_vars " << num_vars;
  }
}

TEST(FlatSpectrum, ConvolveWithConstantZeroIsIdentity) {
  Rng rng(0xABCDEFull);
  const int num_vars = 6;
  const Spectrum f = random_spectrum(num_vars, rng);
  const FlatSpectrum flat = FlatSpectrum::from_spectrum(f);
  const FlatSpectrum id = FlatSpectrum::constant_zero(num_vars);
  EXPECT_TRUE(flat.convolve(id) == flat);
  EXPECT_TRUE(id.convolve(flat) == flat);
}

// The chunked (large-row) path must agree with the single-chunk fast path:
// force it by convolving rows whose cross product exceeds one chunk.
TEST(FlatSpectrum, ChunkedConvolutionMatchesReference) {
  // 2^10-coefficient spectra: bent-like random functions on 10 vars are
  // dense, so |a| * |b| ~ 2^20 cross terms > the 2^18-term chunk.
  Rng rng(0xFEEDFACEull);
  const int num_vars = 10;
  const Spectrum f = random_spectrum(num_vars, rng);
  const Spectrum g = random_spectrum(num_vars, rng);
  ASSERT_GT(f.nonzero_count() * g.nonzero_count(), std::size_t{1} << 18);
  const Spectrum want = f.convolve(g);
  const FlatSpectrum got =
      FlatSpectrum::from_spectrum(f).convolve(FlatSpectrum::from_spectrum(g));
  EXPECT_TRUE(got.is_canonical());
  EXPECT_TRUE(got.to_spectrum() == want);
}

// ---------------------------------------------------------------------------
// BDD / ADD conversions
// ---------------------------------------------------------------------------

TEST(FlatSpectrum, FromBddMatchesSpectrumFromBdd) {
  dd::Manager manager(6, 12);
  // f = (x0 & x1) ^ x2 ^ (x3 & x4 & x5): mixes linear and nonlinear parts.
  dd::Bdd f = (dd::Bdd::var(manager, 0) & dd::Bdd::var(manager, 1)) ^
              dd::Bdd::var(manager, 2) ^
              (dd::Bdd::var(manager, 3) & dd::Bdd::var(manager, 4) &
               dd::Bdd::var(manager, 5));
  const FlatSpectrum flat = FlatSpectrum::from_bdd(f);
  EXPECT_TRUE(flat.is_canonical());
  EXPECT_TRUE(flat.to_spectrum() == Spectrum::from_bdd(f));
}

TEST(FlatSpectrum, ToAddRoundTripsThroughFromAdd) {
  Rng rng(0xBEEF01ull);
  dd::Manager manager(8, 12);
  const Spectrum s = random_spectrum(8, rng);
  const FlatSpectrum flat = FlatSpectrum::from_spectrum(s);
  const dd::Add add = flat.to_add(manager);
  const FlatSpectrum back = FlatSpectrum::from_add(add, 8);
  EXPECT_TRUE(back == flat);
}

// ---------------------------------------------------------------------------
// FlatRowSet + arena reuse
// ---------------------------------------------------------------------------

TEST(FlatRowSet, TracksRowBoundariesAndCoefficients) {
  Rng rng(0x12345ull);
  const Spectrum a = random_spectrum(5, rng);
  const Spectrum b = random_spectrum(5, rng);
  FlatRowSet rows(5);
  rows.append_row(FlatSpectrum::from_spectrum(a));
  rows.append_row(FlatSpectrum::from_spectrum(b));
  ASSERT_EQ(rows.row_count(), 2u);
  EXPECT_EQ(rows.row_size(0), a.nonzero_count());
  EXPECT_EQ(rows.row_size(1), b.nonzero_count());
  EXPECT_EQ(rows.coefficients(), a.nonzero_count() + b.nonzero_count());
  for (const auto& [alpha, v] : b.coefficients())
    EXPECT_EQ(flat_at(rows.row_masks(1), rows.row_coeffs(1), rows.row_size(1),
                      alpha),
              v);
}

TEST(ConvolutionArena, ReusedScratchStopsGrowingWhileConvolutionsClimb) {
  Rng rng(0x777AAAull);
  const int num_vars = 8;
  std::vector<FlatSpectrum> base;
  for (int i = 0; i < 8; ++i)
    base.push_back(FlatSpectrum::from_spectrum(random_spectrum(num_vars, rng)));

  ArenaStats stats;
  ConvolutionArena arena(&stats);
  FlatRowSet out(num_vars);
  // Warm-up round: buffers grow to the high-water mark here.
  for (const FlatSpectrum& a : base)
    for (const FlatSpectrum& b : base) {
      out.reset(num_vars, arena.stats_ptr());
      arena.convolve_row(num_vars, a.masks().data(), a.coeffs().data(),
                         a.nonzero_count(), b.masks().data(),
                         b.coeffs().data(), b.nonzero_count(), out);
    }
  const std::uint64_t grows_after_warmup = stats.grows;
  const std::uint64_t convs_after_warmup = stats.convolutions;
  EXPECT_GT(convs_after_warmup, 0u);

  // Steady state: the same work again must be allocation-free.
  for (const FlatSpectrum& a : base)
    for (const FlatSpectrum& b : base) {
      out.reset(num_vars, arena.stats_ptr());
      arena.convolve_row(num_vars, a.masks().data(), a.coeffs().data(),
                         a.nonzero_count(), b.masks().data(),
                         b.coeffs().data(), b.nonzero_count(), out);
    }
  EXPECT_EQ(stats.grows, grows_after_warmup);
  EXPECT_EQ(stats.convolutions, 2 * convs_after_warmup);
  EXPECT_GT(stats.peak_bytes, 0u);
}

// End-to-end acceptance assertion: the MAPI scan loop performs zero
// per-combination heap allocations — after the warm-up pushes, arena growth
// plateaus while convolutions keep counting.  dom-2 at order 2 runs ~300
// combinations; growth events bounded far below that means the steady-state
// scan never touched the allocator.
TEST(ConvolutionArena, MapiScanRunsAllocationFreeAfterWarmup) {
  circuit::Gadget g = gadgets::by_name("dom-2");
  verify::VerifyOptions opt;
  opt.notion = verify::Notion::kSNI;
  opt.order = 2;
  opt.engine = verify::EngineKind::kMAPI;
  const verify::VerifyResult r = verify::verify(g, opt);
  ASSERT_TRUE(r.secure);
  // One convolution per combination extended past depth 1 — the counter must
  // track the scan (not be a one-off), so it is at least the depth>=2 share
  // of the combination count.
  EXPECT_GT(r.stats.combinations, 100u);
  EXPECT_GE(r.stats.arena_convolutions, r.stats.combinations / 2);
  EXPECT_GT(r.stats.arena_peak_bytes, 0u);
  // Growth events are a property of the high-water row sizes (a handful of
  // doublings per buffer), not of the combination count.
  EXPECT_LT(r.stats.arena_grows, r.stats.combinations / 2);
}

// Basis flat spectra equal the per-subset BDD spectra (the build emits them
// through the ADD walk + sort path; this pins the emission order fix).
TEST(FlatSpectrum, BasisFlatSpectraMatchDirectFromBdd) {
  circuit::Gadget g = gadgets::by_name("isw-2");
  circuit::Unfolded u = circuit::unfold(g);
  verify::ObservableSet obs = verify::build_observables(g, u, {});
  std::shared_ptr<const verify::Basis> basis =
      verify::build_basis(u, obs, verify::EngineKind::kMAP);
  ASSERT_EQ(basis->flat.size(), obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    std::size_t s = 0;
    verify::for_each_xor_subset(
        obs.items[i], *u.manager, [&](const dd::Bdd& x) {
          ASSERT_LT(s, basis->flat[i].size());
          EXPECT_TRUE(basis->flat[i][s].is_canonical());
          EXPECT_TRUE(basis->flat[i][s] == FlatSpectrum::from_bdd(x))
              << "obs " << i << " subset " << s;
          ++s;
        });
    EXPECT_EQ(s, basis->flat[i].size());
  }
}

// ---------------------------------------------------------------------------
// Support-local dense kernel (from_bdd) vs the Fujita transform
// ---------------------------------------------------------------------------

// The paper engines' path: Fujita butterfly to an ADD, then from_add.
FlatSpectrum fujita(const dd::Bdd& f) {
  return FlatSpectrum::from_add(dd::walsh_transform(f),
                                f.manager()->num_vars());
}

class DenseKernel
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

// Every XOR-subset of every observable under all four static variable
// orders, with and without sifting: the dense spectra equal the Fujita ones
// entry for entry.  Both transforms are functions of the diagram, so a
// subset whose BDD was already checked under the same order is skipped (the
// map holds each checked BDD, so no NodeId is recycled for another one).
TEST_P(DenseKernel, MatchesFujitaUnderEveryOrder) {
  const circuit::Gadget g = gadgets::by_name(std::get<0>(GetParam()));
  verify::ProbeModelOptions probes;
  probes.glitch_robust = std::get<1>(GetParam());
  std::vector<std::int64_t> scratch;
  std::size_t checked = 0;
  for (circuit::VarOrder order :
       {circuit::VarOrder::kDeclared, circuit::VarOrder::kRandomsFirst,
        circuit::VarOrder::kRandomsLast, circuit::VarOrder::kInterleaved}) {
    for (bool sift : {false, true}) {
      circuit::Unfolded u = circuit::unfold(g, 18, order);
      if (sift) u.manager->reorder_sift();
      const verify::ObservableSet obs =
          verify::build_observables(g, u, probes);
      std::unordered_map<dd::NodeId, dd::Bdd> seen;
      for (const verify::Observable& o : obs.items)
        verify::for_each_xor_subset(o, *u.manager, [&](const dd::Bdd& x) {
          if (!seen.emplace(x.node(), x).second) return;
          const FlatSpectrum dense = FlatSpectrum::from_bdd(x, &scratch);
          EXPECT_TRUE(dense.is_canonical());
          EXPECT_TRUE(dense == fujita(x))
              << o.name << " order " << static_cast<int>(order) << " sift "
              << sift;
          ++checked;
        });
    }
  }
  EXPECT_GT(checked, 0u);
}

std::string dense_param_name(
    const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
  std::string name = std::get<0>(info.param) +
                     (std::get<1>(info.param) ? "_robust" : "_standard");
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, DenseKernel,
                         ::testing::Combine(
                             ::testing::ValuesIn(gadgets::all_names()),
                             ::testing::Bool()),
                         dense_param_name);

// A cone wider than the dense cutoff takes the Fujita fallback and still
// yields the same spectra through the DIRECT basis.
TEST(FlatSpectrum, WideSupportFallsBackToFujita) {
  constexpr int kRandoms = kDenseSupportCutoff + 2;
  circuit::GadgetBuilder b("wide_cone");
  const std::vector<circuit::WireId> a = b.secret("a", 2);
  const std::vector<circuit::WireId> r = b.randoms("r", kRandoms);
  // a0 ^ r0 ^ ... ^ r[n-2] ^ (a1 & r[n-1]): a support of kRandoms + 2
  // variables with only four nonzero coefficients.
  std::vector<circuit::WireId> terms = {a[0]};
  terms.insert(terms.end(), r.begin(), r.end() - 1);
  terms.push_back(b.and_(a[1], r.back()));
  const circuit::WireId c0 = b.xor_all(terms);
  const circuit::WireId c1 = b.xor_(a[1], r.back());
  b.output_group("c", {c0, c1});
  const circuit::Gadget g = b.build();

  circuit::Unfolded u = circuit::unfold(g);
  const verify::ObservableSet obs = verify::build_observables(g, u, {});
  std::size_t wide = 0;
  for (const verify::Observable& o : obs.items)
    verify::for_each_xor_subset(o, *u.manager, [&](const dd::Bdd& x) {
      if (x.support().popcount() > kDenseSupportCutoff) ++wide;
      EXPECT_TRUE(FlatSpectrum::from_bdd(x) == fujita(x)) << o.name;
    });
  EXPECT_GT(wide, 0u);

  const auto dense = verify::build_basis(u, obs, verify::EngineKind::kDIRECT);
  const auto paper = verify::build_basis(u, obs, verify::EngineKind::kMAP);
  EXPECT_TRUE(dense->flat == paper->flat);
  EXPECT_EQ(dense->base_coefficients, paper->base_coefficients);
}

// At the 62-variable limit the 2^(n-k) scaling reaches 2^62 exactly; one
// variable more is refused before any shift.
TEST(FlatSpectrum, SixtyTwoVariableCoefficientsAreExact) {
  dd::Manager manager(62, 10);
  const dd::Bdd x0 = dd::Bdd::var(manager, 0);
  const dd::Bdd x61 = dd::Bdd::var(manager, 61);

  const FlatSpectrum linear = FlatSpectrum::from_bdd(x0 ^ x61);
  ASSERT_EQ(linear.nonzero_count(), 1u);
  EXPECT_EQ(linear.masks()[0], Mask::bit(0) | Mask::bit(61));
  EXPECT_EQ(linear.coeffs()[0], std::int64_t{1} << 62);
  EXPECT_TRUE(linear == fujita(x0 ^ x61));

  EXPECT_TRUE(FlatSpectrum::from_bdd(dd::Bdd::zero(manager)) ==
              FlatSpectrum::constant_zero(62));
  const FlatSpectrum product = FlatSpectrum::from_bdd(x0 & x61);
  EXPECT_EQ(product.nonzero_count(), 4u);
  EXPECT_EQ(product.at(Mask{}), std::int64_t{1} << 61);
  EXPECT_TRUE(product == fujita(x0 & x61));

  dd::Manager wide(63, 10);
  EXPECT_THROW(FlatSpectrum::from_bdd(dd::Bdd::var(wide, 0)),
               std::invalid_argument);
}

// Random sums of products over at most 12 variables, under a random level
// order, against the truth-table ground truth.  One scratch table serves
// every trial, so it both grows and shrinks between calls.
TEST(FlatSpectrum, DenseMatchesTruthTableOnRandomBdds) {
  Rng rng(0xD15EA5Eull);
  std::vector<std::int64_t> scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.next() % 12);
    dd::Manager manager(n, 12);
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(order[i], order[rng.next() % (i + 1)]);
    manager.set_variable_order(order);

    dd::Bdd f = dd::Bdd::zero(manager);
    const int products = 1 + static_cast<int>(rng.next() % 6);
    for (int t = 0; t < products; ++t) {
      dd::Bdd term = dd::Bdd::one(manager);
      for (int v = 0; v < n; ++v) {
        const std::uint64_t pick = rng.next() % 4;
        if (pick == 0) term &= dd::Bdd::var(manager, v);
        if (pick == 1) term &= dd::Bdd::nvar(manager, v);
      }
      f ^= term;
    }
    const FlatSpectrum got = FlatSpectrum::from_bdd(f, &scratch);
    EXPECT_TRUE(got.is_canonical()) << "trial " << trial;
    EXPECT_TRUE(got.to_spectrum() ==
                Spectrum::from_function(
                    n, [&](const Mask& x) { return f.eval(x); }))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace sani::spectral
