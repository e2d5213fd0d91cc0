#include "verify/portfolio.h"

#include <algorithm>
#include <cmath>

namespace sani::verify {

int suggest_unfold_cache_bits(const circuit::Gadget& gadget, int ceiling) {
  // Unfolding performs O(gates) apply operations, each touching O(live
  // nodes) cache slots, with live nodes roughly gates * inputs for these
  // workloads.
  const circuit::NetlistStats s = gadget.netlist.stats();
  const double work = static_cast<double>(s.num_gates) *
                          static_cast<double>(s.num_inputs + 1) * 16.0 +
                      1024.0;
  const int bits = static_cast<int>(std::ceil(std::log2(work)));
  return std::clamp(bits, 10, std::max(10, ceiling));
}

}  // namespace sani::verify
