#include "util/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SANI_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sani::util {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef SANI_SHA256_X86

// The SHA-extension kernel.  The state lives in two registers in the
// instruction set's ABEF/CDGH lane order; each group of four message words
// is byte-swapped (loaded) or expanded (sha256msg1/msg2) in a four-entry
// ring, and sha256rnds2 runs two rounds per call.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                  // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);        // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);             // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int t = 0; t < 16; ++t) {
      __m128i m;
      if (t < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * t)),
            byte_swap);
      } else {
        // W[t] from W[t-4] (ring slot t&3), W[t-3], W[t-2] and W[t-1].
        const __m128i w1 = w[(t + 3) & 3];
        m = _mm_sha256msg1_epu32(w[t & 3], w[(t + 1) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w1, w[(t + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w1);
      }
      w[t & 3] = m;
      __m128i wk = _mm_add_epi32(
          m, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * t)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);                 // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);                // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);             // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);                // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#endif  // SANI_SHA256_X86

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

CompressFn pick_compress() {
#ifdef SANI_SHA256_X86
  unsigned a = 0, b = 0, c = 0, d = 0;
  const bool sse = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_SSSE3) &&
                   (c & bit_SSE4_1);
  if (sse && __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA))
    return compress_sha_ni;
#endif
  return detail::sha256_compress_portable;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void sha256_compress(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t blocks) {
  // A function-local static rather than a namespace-scope one: content
  // keys may be hashed from other translation units' static initializers.
  static const CompressFn compress = pick_compress();
  compress(state, data, blocks);
}

}  // namespace detail

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      detail::sha256_compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (len >= 64) {
    const std::size_t blocks = len / 64;
    detail::sha256_compress(state_, p, blocks);
    p += 64 * blocks;
    len -= 64 * blocks;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

void Sha256::digest(std::uint8_t out[32]) const {
  // Finalize on copies so the accumulator remains updatable: the buffered
  // tail, the 0x80 marker, zeros and the 64-bit big-endian bit length fill
  // one block, or two when the tail leaves fewer than 9 bytes free.
  std::uint32_t state[8];
  std::memcpy(state, state_, sizeof(state));
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_, buffered_);
  tail[buffered_] = 0x80;
  const std::size_t len = buffered_ + 9 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i)
    tail[len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  detail::sha256_compress(state, tail, len / 64);
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

std::string Sha256::hex_digest() const {
  std::uint8_t d[32];
  digest(d);
  static const char* hex = "0123456789abcdef";
  std::string out(64, '0');
  for (int i = 0; i < 32; ++i) {
    out[2 * i] = hex[d[i] >> 4];
    out[2 * i + 1] = hex[d[i] & 0xF];
  }
  return out;
}

std::string sha256_hex(const std::string& s) {
  Sha256 h;
  h.update(s);
  return h.hex_digest();
}

}  // namespace sani::util
