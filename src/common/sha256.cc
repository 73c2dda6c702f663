#include "src/common/sha256.h"

#include <algorithm>
#include <utility>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace vdp {
namespace {

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline uint32_t RotR(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// Four rounds (quad J of 16) of the SHA-NI schedule. w holds the message
// words W[4j..4j+3] of the four most recent quads in slot j % 4; quad J
// finishes W for quad J + 1 (sha256msg2) and starts it for quad J + 3
// (sha256msg1), the interleaving of Intel's reference code.
template <int J>
__attribute__((target("sha,sse4.1"), always_inline)) inline void ShaNiQuad(__m128i& abef,
                                                                           __m128i& cdgh,
                                                                           __m128i (&w)[4]) {
  const __m128i k =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * J));
  const __m128i msg = _mm_add_epi32(w[J % 4], k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  if constexpr (J >= 3 && J <= 14) {
    __m128i& next = w[(J + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(w[J % 4], w[(J + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, w[J % 4]);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
  if constexpr (J >= 1 && J <= 12) {
    w[(J + 3) % 4] = _mm_sha256msg1_epu32(w[(J + 3) % 4], w[J % 4]);
  }
}

template <int... J>
__attribute__((target("sha,sse4.1"), always_inline)) inline void ShaNiRounds(
    __m128i& abef, __m128i& cdgh, __m128i (&w)[4], std::integer_sequence<int, J...>) {
  (ShaNiQuad<J>(abef, cdgh, w), ...);
}

#endif  // __x86_64__

using CompressFn = void (*)(Sha256::State&, const uint8_t*, size_t);

// Chosen on first use, once per process.
void Compress(Sha256::State& state, const uint8_t* data, size_t blocks) {
#if defined(__x86_64__)
  static const CompressFn compress = sha256_internal::HasShaNi()
                                         ? sha256_internal::CompressShaNi
                                         : sha256_internal::CompressPortable;
  compress(state, data, blocks);
#else
  sha256_internal::CompressPortable(state, data, blocks);
#endif
}

}  // namespace

namespace sha256_internal {

void CompressPortable(Sha256::State& state, const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
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

bool HasShaNi() {
#if defined(__x86_64__)
  // CPUID leaf 1: ECX bit 9 is SSSE3, bit 19 SSE4.1. Leaf 7 subleaf 0: EBX
  // bit 29 is SHA. The feature masks are spelled out so that GCC's and
  // Clang's <cpuid.h> need not agree on their names.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & (1u << 9)) == 0 ||
      (ecx & (1u << 19)) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

#if defined(__x86_64__)

__attribute__((target("sha,sse4.1"))) void CompressShaNi(Sha256::State& state,
                                                         const uint8_t* data, size_t blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // The rounds instruction keeps the state as (A, B, E, F) and (C, D, G, H).
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), kByteSwap);
    }
    ShaNiRounds(abef, cdgh, w, std::make_integer_sequence<int, 16>{});
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), hgfe);
}

#endif  // __x86_64__

}  // namespace sha256_internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256& Sha256::Update(BytesView data) {
  if (data.empty()) {
    return *this;  // also avoids memcpy from a null data() (UB even for 0 bytes)
  }
  total_bytes_ += data.size();
  const uint8_t* in = data.data();
  size_t left = data.size();
  if (buffered_ > 0) {
    const size_t take = std::min(kBlockSize - buffered_, left);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < kBlockSize) {
      return *this;
    }
    Compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  const size_t blocks = left / kBlockSize;
  if (blocks > 0) {
    Compress(state_, in, blocks);
    in += blocks * kBlockSize;
    left -= blocks * kBlockSize;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffered_ = left;
  }
  return *this;
}

Sha256::Digest Sha256::Finalize() {
  // Pad with 0x80 and zeros to 56 mod 64, then append the 64-bit big-endian
  // bit length: one final block, or two when fewer than 9 bytes are free.
  uint8_t tail[2 * kBlockSize] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const size_t tail_blocks = buffered_ < kBlockSize - 8 ? 1 : 2;
  const uint64_t bit_len = total_bytes_ * 8;
  uint8_t* len_bytes = tail + tail_blocks * kBlockSize - 8;
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_, tail, tail_blocks);

  Digest digest;
  for (size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256::Digest Sha256::Hash(BytesView data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Sha256::Digest Sha256::TaggedHash(BytesView tag, BytesView data) {
  Sha256 h;
  uint8_t len = static_cast<uint8_t>(tag.size());
  h.Update(BytesView(&len, 1));
  h.Update(tag);
  h.Update(data);
  return h.Finalize();
}

}  // namespace vdp
