#include "verify/qinfo.h"

#include <algorithm>

namespace sani::verify {

void DepTable::add_run(int k, std::uint64_t begin, std::vector<Mask> masks) {
  if (masks.empty()) return;
  entries_ += masks.size();
  bytes_ += sizeof(Run) + masks.capacity() * sizeof(Mask);
  const auto at = std::find_if(runs_.begin(), runs_.end(), [&](const Run& r) {
    return r.k > k || (r.k == k && r.begin > begin);
  });
  runs_.insert(at, Run{k, begin, std::move(masks)});
}

std::size_t DepTable::count_ranks_below(
    const std::vector<std::uint64_t>& bound) const {
  std::size_t n = 0;
  for (const Run& run : runs_) {
    const std::size_t k = static_cast<std::size_t>(run.k);
    if (k < bound.size() && bound[k] > run.begin)
      n += std::min<std::uint64_t>(run.masks.size(), bound[k] - run.begin);
  }
  return n;
}

}  // namespace sani::verify
