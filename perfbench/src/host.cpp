#include "host.h"

#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "spans.h"

namespace perfbench {

double host_kernel_ms() {
  static std::vector<std::uint64_t> buf(1 << 17);
  constexpr std::size_t kPageBytes = 4 << 20;
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int pass = 0; pass < 8; ++pass)
    for (std::uint64_t& v : buf) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v += x;
    }
  void* pages = mmap(nullptr, kPageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages != MAP_FAILED) {
    std::memset(pages, static_cast<int>(x), kPageBytes);
    munmap(pages, kPageBytes);
  }
  return (now_ns() - start) * 1e-6;
}

}  // namespace perfbench
