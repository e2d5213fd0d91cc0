#include "spectral/spectrum.h"

#include <algorithm>
#include <stdexcept>

#include "dd/walsh.h"

namespace sani::spectral {

void fwht(std::vector<std::int64_t>& v) {
  const std::size_t n = v.size();
  if (n == 0 || (n & (n - 1)) != 0)
    throw std::invalid_argument("fwht: length must be a power of two");
  // Two butterfly stages per pass (radix 4) halve the passes over v; an odd
  // stage count leaves one radix-2 pass at the end.
  std::size_t len = 1;
  for (; (len << 2) <= n; len <<= 2) {
    for (std::size_t block = 0; block < n; block += len << 2) {
      for (std::size_t i = block; i < block + len; ++i) {
        const std::int64_t s0 = v[i] + v[i + len];
        const std::int64_t d0 = v[i] - v[i + len];
        const std::int64_t s1 = v[i + 2 * len] + v[i + 3 * len];
        const std::int64_t d1 = v[i + 2 * len] - v[i + 3 * len];
        v[i] = s0 + s1;
        v[i + len] = d0 + d1;
        v[i + 2 * len] = s0 - s1;
        v[i + 3 * len] = d0 - d1;
      }
    }
  }
  if (len < n) {
    for (std::size_t i = 0; i < len; ++i) {
      const std::int64_t a = v[i];
      const std::int64_t b = v[i + len];
      v[i] = a + b;
      v[i + len] = a - b;
    }
  }
}

Spectrum Spectrum::constant_zero(int num_vars) {
  Spectrum s(num_vars);
  s.map_.emplace(Mask{}, std::int64_t{1} << num_vars);
  return s;
}

Spectrum Spectrum::from_bdd(const dd::Bdd& f) {
  dd::Add spectrum = dd::walsh_transform(f);
  return from_add(spectrum, f.manager()->num_vars());
}

Spectrum Spectrum::from_add(const dd::Add& spectrum, int num_vars) {
  Spectrum s(num_vars);
  std::vector<Mask> masks;
  std::vector<std::int64_t> coeffs;
  dd::enumerate_spectrum(spectrum, num_vars, &masks, &coeffs);
  s.map_.reserve(masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i)
    s.map_.emplace(masks[i], coeffs[i]);
  return s;
}

void Spectrum::set(const Mask& alpha, std::int64_t value) {
  if (value == 0)
    map_.erase(alpha);
  else
    map_[alpha] = value;
}

Spectrum Spectrum::convolve(const Spectrum& other) const {
  if (num_vars_ != other.num_vars_)
    throw std::invalid_argument("Spectrum::convolve: variable count mismatch");
  std::unordered_map<Mask, __int128, MaskHash> acc;
  acc.reserve(map_.size() * 2);
  for (const auto& [a, va] : map_)
    for (const auto& [b, vb] : other.map_)
      acc[a ^ b] += static_cast<__int128>(va) * vb;

  Spectrum result(num_vars_);
  result.map_.reserve(acc.size());
  for (const auto& [mask, v] : acc) {
    if (v == 0) continue;
    // Convolution theorem: the sum is 2^n * s_{f XOR g}; division is exact.
    __int128 scaled = v >> num_vars_;
    if ((scaled << num_vars_) != v)
      throw std::logic_error("Spectrum::convolve: inexact 2^-n scaling");
    result.map_.emplace(mask, static_cast<std::int64_t>(scaled));
  }
  return result;
}

Mask Spectrum::support_union(const Mask& forbidden) const {
  Mask u;
  for (const auto& [alpha, v] : map_)
    if (!alpha.intersects(forbidden)) u |= alpha;
  return u;
}

dd::Add Spectrum::to_add(dd::Manager& manager) const {
  // Top-down recursive split on the variable order: O(n * m) node
  // constructions for m coefficients, no operation-cache traffic.  make()
  // alone never triggers garbage collection, so the bare NodeIds are safe
  // until the final handle wrap.
  std::vector<std::pair<Mask, std::int64_t>> entries(map_.begin(), map_.end());
  struct Rec {
    dd::Manager& m;
    int num_vars;
    using It = std::vector<std::pair<Mask, std::int64_t>>::iterator;
    dd::NodeId run(It first, It last, int level) {
      if (first == last) return m.zero();
      if (level == num_vars) return m.terminal(first->second);
      const int var = m.var_at_level(level);
      It mid = std::partition(
          first, last,
          [var](const std::pair<Mask, std::int64_t>& e) {
            return !e.first.test(var);
          });
      return m.make(var, run(first, mid, level + 1),
                    run(mid, last, level + 1));
    }
  };
  dd::NodeId root = Rec{manager, num_vars_}.run(entries.begin(),
                                                entries.end(), 0);
  return dd::Add(&manager, root);
}

bool Spectrum::parseval_ok() const {
  __int128 sum = 0;
  for (const auto& [alpha, v] : map_)
    sum += static_cast<__int128>(v) * v;
  return sum == static_cast<__int128>(1) << (2 * num_vars_);
}

}  // namespace sani::spectral
