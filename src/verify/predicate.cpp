#include "verify/predicate.h"

#include <algorithm>

namespace sani::verify {

PredicateBuilder::PredicateBuilder(dd::Manager& manager,
                                   const circuit::VarMap& vars,
                                   bool joint_share_count)
    : m_(manager), vars_(vars), joint_(joint_share_count) {
  dd::Bdd acc = dd::Bdd::one(m_);
  vars_.random_vars.for_each_bit(
      [&](int v) { acc &= dd::Bdd::nvar(m_, v); });
  rho_zero_ = acc;
}

dd::Bdd PredicateBuilder::count_ge(const std::vector<int>& vars, int k) {
  if (k <= 0) return dd::Bdd::one(m_);
  if (k > static_cast<int>(vars.size())) return dd::Bdd::zero(m_);
  // dp[c] = "at least c of the variables seen so far are 1".
  std::vector<dd::Bdd> dp(static_cast<std::size_t>(k) + 1);
  dp[0] = dd::Bdd::one(m_);
  for (std::size_t c = 1; c < dp.size(); ++c) dp[c] = dd::Bdd::zero(m_);
  for (int v : vars) {
    const dd::Bdd x = dd::Bdd::var(m_, v);
    for (std::size_t c = dp.size() - 1; c >= 1; --c)
      dp[c] = dp[c] | (dp[c - 1] & x);
  }
  return dp[static_cast<std::size_t>(k)];
}

dd::Bdd PredicateBuilder::ni_violation(int threshold) {
  auto it = ni_cache_.find(threshold);
  if (it != ni_cache_.end()) return it->second;
  dd::Bdd over;
  if (joint_) {
    std::vector<int> all_shares;
    for (const auto& group : vars_.secret_share_var)
      all_shares.insert(all_shares.end(), group.begin(), group.end());
    std::sort(all_shares.begin(), all_shares.end());
    over = count_ge(all_shares, threshold + 1);
  } else {
    over = dd::Bdd::zero(m_);
    for (const auto& group : vars_.secret_share_var)
      over |= count_ge(group, threshold + 1);
  }
  dd::Bdd t = over & rho_zero_;
  ni_cache_.emplace(threshold, t);
  return t;
}

dd::Bdd PredicateBuilder::probing_violation() {
  if (probing_cache_.is_valid()) return probing_cache_;
  std::vector<dd::Bdd> full;
  std::vector<dd::Bdd> full_or_empty;
  for (const auto& group : vars_.secret_share_var) {
    dd::Bdd all = dd::Bdd::one(m_);
    dd::Bdd none = dd::Bdd::one(m_);
    for (int v : group) {
      all &= dd::Bdd::var(m_, v);
      none &= dd::Bdd::nvar(m_, v);
    }
    full.push_back(all);
    full_or_empty.push_back(all | none);
  }
  dd::Bdd clean = rho_zero_;
  for (const auto& fe : full_or_empty) clean &= fe;
  dd::Bdd some_full = dd::Bdd::zero(m_);
  for (const auto& f : full) some_full |= f;
  probing_cache_ = clean & some_full;
  return probing_cache_;
}

dd::Bdd PredicateBuilder::pini_violation(std::uint64_t allowed,
                                         int threshold) {
  const auto cache_key = std::make_pair(allowed, threshold);
  auto it = pini_cache_.find(cache_key);
  if (it != pini_cache_.end()) return it->second;

  // touched_j = "some share coordinate with index j (of any secret) is 1".
  const int num_indices =
      vars_.secret_share_var.empty()
          ? 0
          : static_cast<int>(vars_.secret_share_var.front().size());
  std::vector<dd::Bdd> touched;
  for (int j = 0; j < num_indices; ++j) {
    if (j < 64 && ((allowed >> j) & 1)) continue;
    dd::Bdd t = dd::Bdd::zero(m_);
    for (const auto& group : vars_.secret_share_var)
      t |= dd::Bdd::var(m_, group[j]);
    touched.push_back(t);
  }

  // "at least threshold+1 disallowed indices touched".
  const int k = threshold + 1;
  dd::Bdd result;
  if (k <= 0) {
    result = dd::Bdd::one(m_);
  } else if (k > static_cast<int>(touched.size())) {
    result = dd::Bdd::zero(m_);
  } else {
    std::vector<dd::Bdd> dp(static_cast<std::size_t>(k) + 1);
    dp[0] = dd::Bdd::one(m_);
    for (std::size_t c = 1; c < dp.size(); ++c) dp[c] = dd::Bdd::zero(m_);
    for (const auto& t : touched)
      for (std::size_t c = dp.size() - 1; c >= 1; --c)
        dp[c] = dp[c] | (dp[c - 1] & t);
    result = dp[static_cast<std::size_t>(k)];
  }
  result &= rho_zero_;
  pini_cache_.emplace(cache_key, result);
  return result;
}

}  // namespace sani::verify
