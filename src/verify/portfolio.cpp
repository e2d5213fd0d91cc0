#include "verify/portfolio.h"

#include <algorithm>
#include <cmath>

namespace sani::verify {

int suggest_unfold_cache_bits(const circuit::Gadget& gadget, int ceiling) {
  // The unfolding makes one apply per gate, and the live diagram it builds
  // stays within a few hundred to a few thousand nodes on these workloads,
  // so about 64 computed-table entries per gate keep the hit rate without
  // zeroing megabytes a short request never touches.
  const double work =
      static_cast<double>(gadget.netlist.stats().num_gates) * 64.0;
  const int bits = static_cast<int>(std::ceil(std::log2(std::max(work, 1.0))));
  return std::clamp(bits, 10, std::max(10, ceiling));
}

}  // namespace sani::verify
