// FIPS 180-4 SHA-256. Used for Fiat-Shamir transcripts, hash commitments,
// hash-to-group derivation and HMAC. Streaming interface plus one-shot helpers.
//
// The block function is chosen once per process from CPUID: the x86 SHA
// extensions (SHA-NI) when the CPU reports them, the portable C++ rounds
// otherwise. Both produce identical digests; the portable one is also the
// oracle the differential test checks SHA-NI against. Non-x86 builds compile
// only the portable one.
#ifndef SRC_COMMON_SHA256_H_
#define SRC_COMMON_SHA256_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"

namespace vdp {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;
  using Digest = std::array<uint8_t, kDigestSize>;
  using State = std::array<uint32_t, 8>;

  Sha256();

  Sha256& Update(BytesView data);
  Digest Finalize();  // The object must not be reused after Finalize().

  static Digest Hash(BytesView data);
  // Domain-separated hash: H(len(tag) || tag || data).
  static Digest TaggedHash(BytesView tag, BytesView data);

 private:
  State state_;
  uint64_t total_bytes_ = 0;
  std::array<uint8_t, kBlockSize> buffer_{};
  size_t buffered_ = 0;
};

// The block functions behind Sha256, for the differential test and the
// group-ops bench. Each compresses `blocks` consecutive 64-byte blocks of
// `data` into `state`.
namespace sha256_internal {

void CompressPortable(Sha256::State& state, const uint8_t* data, size_t blocks);

// True iff the CPU reports the SHA extensions and SSE4.1, so CompressShaNi
// may run; Sha256 then uses it. Always false off x86-64.
bool HasShaNi();

#if defined(__x86_64__)
void CompressShaNi(Sha256::State& state, const uint8_t* data, size_t blocks);
#endif

}  // namespace sha256_internal

}  // namespace vdp

#endif  // SRC_COMMON_SHA256_H_
