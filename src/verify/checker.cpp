#include "verify/checker.h"

#include <sstream>

#include "verify/engine.h"

namespace sani::verify {

const char* notion_name(Notion n) {
  switch (n) {
    case Notion::kProbing: return "probing";
    case Notion::kNI: return "NI";
    case Notion::kSNI: return "SNI";
    case Notion::kPINI: return "PINI";
  }
  return "?";
}

const char* engine_name(EngineKind e) {
  switch (e) {
    case EngineKind::kLIL: return "LIL";
    case EngineKind::kMAP: return "MAP";
    case EngineKind::kMAPI: return "MAPI";
    case EngineKind::kFUJITA: return "FUJITA";
    case EngineKind::kAuto: return "auto";
    case EngineKind::kDIRECT: return "DIRECT";
  }
  return "?";
}

Checker::Checker(const circuit::VarMap& vars, Notion notion,
                 bool joint_share_count)
    : vars_(vars), notion_(notion), joint_(joint_share_count) {
  const std::size_t num_indices =
      vars_.secret_share_var.empty() ? 0 : vars_.secret_share_var.front().size();
  if (num_indices > 64)
    throw InputLimitError("gadget has " + std::to_string(num_indices) +
                          " shares per secret; at most 64 are supported");
  index_vars_.resize(num_indices);
  for (const auto& group : vars_.secret_share_var)
    for (std::size_t j = 0; j < group.size(); ++j)
      index_vars_[j].set(group[j]);
}

int Checker::threshold(const RowContext& row) const {
  switch (notion_) {
    case Notion::kNI: return row.num_observables;
    case Notion::kSNI: return row.num_internal;
    default: return 0;  // probing/PINI use dedicated predicates
  }
}

int Checker::disallowed_indices(const Mask& bits,
                                std::uint64_t allowed) const {
  int count = 0;
  for (std::size_t j = 0; j < index_vars_.size(); ++j)
    if (!((allowed >> j) & 1) && bits.intersects(index_vars_[j])) ++count;
  return count;
}

bool Checker::random_free_violates(const Mask& alpha,
                                   const RowContext& row) const {
  switch (notion_) {
    case Notion::kNI:
    case Notion::kSNI: {
      const int t = threshold(row);
      if (joint_) return (alpha & vars_.share_vars).popcount() > t;
      for (const auto& group : vars_.secret_vars)
        if ((alpha & group).popcount() > t) return true;
      return false;
    }
    case Notion::kProbing: {
      bool some_full = false;
      for (const auto& group : vars_.secret_vars) {
        const Mask sel = alpha & group;
        if (sel.empty()) continue;
        if (sel != group) return false;  // partial: averages to zero
        some_full = true;
      }
      return some_full;
    }
    case Notion::kPINI:
      return disallowed_indices(alpha & vars_.share_vars, row.output_mask) >
             row.num_internal;
  }
  return false;
}

ForbiddenRegion::ForbiddenRegion(const Checker& checker,
                                 const circuit::VarMap& vars,
                                 const RowContext& row,
                                 const Mask& extra_vars)
    : row_(row),
      notion_(checker.notion()),
      joint_(checker.joint_share_count()),
      threshold_(checker.threshold(row)) {
  // Enumeration space: share coordinates plus the requested extras, in
  // ascending variable order.
  Mask space = vars.share_vars | extra_vars;
  space.for_each_bit([&](int v) { positions_.push_back(v); });
  if (positions_.size() > kMaxPositions)
    throw InputLimitError(
        "the forbidden region spans " + std::to_string(positions_.size()) +
        " share and public coordinates; the LIL/MAP scan engines enumerate "
        "at most " + std::to_string(kMaxPositions) +
        " (use --engine direct)");

  auto compact_of = [&](const Mask& m) {
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < positions_.size(); ++i)
      if (m.test(positions_[i])) c |= std::uint64_t{1} << i;
    return c;
  };
  for (const Mask& g : vars.secret_vars)
    group_compact_.push_back(compact_of(g));
  shares_compact_ = compact_of(vars.share_vars);
  const std::size_t num_indices =
      vars.secret_share_var.empty() ? 0 : vars.secret_share_var.front().size();
  for (std::size_t j = 0; j < num_indices; ++j) {
    Mask ij;
    for (const auto& group : vars.secret_share_var) ij.set(group[j]);
    index_compact_.push_back(compact_of(ij));
  }
}

bool ForbiddenRegion::forbidden(std::uint64_t idx) const {
  switch (notion_) {
    case Notion::kNI:
    case Notion::kSNI: {
      if (joint_)
        return __builtin_popcountll(idx & shares_compact_) > threshold_;
      for (std::uint64_t g : group_compact_)
        if (__builtin_popcountll(idx & g) > threshold_) return true;
      return false;
    }
    case Notion::kProbing: {
      bool some_full = false;
      for (std::uint64_t g : group_compact_) {
        const std::uint64_t sel = idx & g;
        if (sel == 0) continue;
        if (sel != g) return false;
        some_full = true;
      }
      return some_full;
    }
    case Notion::kPINI: {
      int extra = 0;
      for (std::size_t j = 0; j < index_compact_.size(); ++j)
        if (!((row_.output_mask >> j) & 1) && (idx & index_compact_[j]) != 0)
          ++extra;
      return extra > row_.num_internal;
    }
  }
  return false;
}

Mask ForbiddenRegion::expand(std::uint64_t idx) const {
  Mask m;
  while (idx) {
    const int bit = __builtin_ctzll(idx);
    m.set(positions_[bit]);
    idx &= idx - 1;
  }
  return m;
}

bool ForbiddenRegion::empty() const {
  switch (notion_) {
    case Notion::kNI:
    case Notion::kSNI: {
      if (joint_)
        return __builtin_popcountll(shares_compact_) <= threshold_;
      for (std::uint64_t g : group_compact_)
        if (__builtin_popcountll(g) > threshold_) return false;
      return true;
    }
    case Notion::kProbing:
      return group_compact_.empty();
    case Notion::kPINI: {
      int candidates = 0;
      for (std::size_t j = 0; j < index_compact_.size(); ++j)
        if (!((row_.output_mask >> j) & 1)) ++candidates;
      return candidates <= row_.num_internal;
    }
  }
  return true;
}

bool Checker::union_violates(const Mask& V, const RowContext& row,
                             std::string* reason) const {
  auto fail = [&](const std::string& msg) {
    if (reason) *reason = msg;
    return true;
  };
  switch (notion_) {
    case Notion::kProbing:
      return false;  // exact per coefficient
    case Notion::kNI:
    case Notion::kSNI: {
      const int t = threshold(row);
      if (joint_) {
        const int n = V.popcount();
        if (n > t) {
          std::ostringstream os;
          os << "joint distribution depends on " << n
             << " input shares in total but only " << t << " are allowed ("
             << notion_name(notion_) << ", joint counting)";
          return fail(os.str());
        }
        return false;
      }
      for (std::size_t i = 0; i < vars_.secret_vars.size(); ++i) {
        const int n = (V & vars_.secret_vars[i]).popcount();
        if (n > t) {
          std::ostringstream os;
          os << "joint distribution depends on " << n << " shares of secret "
             << i << " but only " << t << " are allowed ("
             << notion_name(notion_) << ")";
          return fail(os.str());
        }
      }
      return false;
    }
    case Notion::kPINI: {
      const int extra = disallowed_indices(V, row.output_mask);
      if (extra > row.num_internal) {
        std::ostringstream os;
        os << "observations touch " << extra
           << " share indices beyond the probed outputs, but only "
           << row.num_internal << " internal probes were placed (PINI)";
        return fail(os.str());
      }
      return false;
    }
  }
  return false;
}

}  // namespace sani::verify
