#pragma once
// Shared helpers for the test suites.

#include <cstdint>
#include <vector>

#include "circuit/builder.h"
#include "dd/bdd.h"
#include "dd/manager.h"

namespace sani::test {

/// Deterministic 64-bit PRNG (splitmix64) — keeps the property tests
/// reproducible without <random> machinery.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  bool bit() { return next() & 1; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Random truth table of a function over n variables.
inline std::vector<bool> random_truth_table(Rng& rng, int n) {
  std::vector<bool> t(std::size_t{1} << n);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.bit();
  return t;
}

/// Builds the BDD of an explicit truth table (bit x = f(x), variable i is
/// bit i of x).
inline dd::Bdd bdd_from_truth_table(dd::Manager& m,
                                    const std::vector<bool>& table, int n) {
  dd::Bdd f = dd::Bdd::zero(m);
  for (std::size_t x = 0; x < table.size(); ++x) {
    if (!table[x]) continue;
    dd::Bdd minterm = dd::Bdd::one(m);
    for (int i = 0; i < n; ++i)
      minterm &= (x >> i) & 1 ? dd::Bdd::var(m, i) : dd::Bdd::nvar(m, i);
    f |= minterm;
  }
  return f;
}

/// z = a ^ b share-wise over 21 shares: 42 share coordinates and no
/// randoms, two over the 40 the LIL/MAP forbidden-region enumeration spans.
/// Every output share reveals one share of each input with no internal
/// probe placed, so the gadget is not 1-SNI.
inline circuit::Gadget wide_xor() {
  circuit::GadgetBuilder b("wide_xor");
  const std::vector<circuit::WireId> a = b.secret("a", 21);
  const std::vector<circuit::WireId> c = b.secret("b", 21);
  std::vector<circuit::WireId> z;
  for (int i = 0; i < 21; ++i) z.push_back(b.xor_(a[i], c[i]));
  b.output_group("z", z);
  return b.build();
}

}  // namespace sani::test
