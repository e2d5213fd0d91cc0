#pragma once
// Self-contained SHA-256 (FIPS 180-4) for content addressing.
//
// The artifact store keys every prepared-verification artifact by the
// SHA-256 of its canonicalized inputs (store/store.h), and the circuit
// layer keys probe cones by a SHA-256 Merkle hash of their functions' BDDs
// (circuit/cone_hash.h), so the hash must be stable across platforms,
// compilers and endianness — which is exactly what a bit-level FIPS
// implementation gives us, and why this does not reuse the process-local
// MaskHash-style mixers (those are seeds for hash tables, not content
// addresses).  No external crypto dependency: the container image only
// guarantees the C++ toolchain.
//
// The block compression runs on the x86 SHA extensions when CPUID reports
// them (SHA, SSSE3 and SSE4.1), chosen once per process; every other host,
// and every non-x86 build, runs the portable FIPS loop.  Both produce the
// same state for the same blocks (tests/util_test.cpp checks them against
// each other), so digests never depend on the host.

#include <cstddef>
#include <cstdint>
#include <string>

namespace sani::util {

/// Incremental SHA-256.  update() may be called any number of times;
/// hex_digest()/digest() finalize a copy, so the accumulator stays usable.
class Sha256 {
 public:
  Sha256();

  void update(const void* data, std::size_t len);
  void update(const std::string& s) { update(s.data(), s.size()); }

  /// 32-byte digest of everything updated so far.
  void digest(std::uint8_t out[32]) const;

  /// Lowercase hex of digest() — the store's object-key spelling.
  std::string hex_digest() const;

 private:
  std::uint32_t state_[8];
  std::uint64_t total_bytes_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

/// One-shot convenience: SHA-256 of `s`, as lowercase hex.
std::string sha256_hex(const std::string& s);

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks into `state` with the
/// portable FIPS 180-4 loop — the reference the hardware path is tested
/// against.
void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* data, std::size_t blocks);

/// The compression Sha256 uses: the SHA-extension kernel when this CPU has
/// it, else sha256_compress_portable.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t blocks);

}  // namespace detail

}  // namespace sani::util
