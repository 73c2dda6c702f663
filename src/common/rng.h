// Deterministic cryptographic random generator (ChaCha20 DRBG).
//
// Every protocol party draws randomness through SecureRng so tests can run
// fully deterministically from fixed seeds while production callers seed from
// the OS entropy pool.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/chacha20.h"

namespace vdp {

class SecureRng {
 public:
  static constexpr size_t kSeedSize = 32;
  using Seed = std::array<uint8_t, kSeedSize>;

  // Deterministic generator from an explicit seed (tests, reproducible runs).
  explicit SecureRng(const Seed& seed);
  // Convenience: seed derived from a label (hashing the label).
  explicit SecureRng(const std::string& label);

  // Generator seeded from the OS entropy pool.
  static SecureRng FromEntropy();

  void FillBytes(uint8_t* out, size_t len);
  Bytes RandomBytes(size_t len);

  uint64_t NextU64();
  // Uniform in [0, bound). Requires bound > 0. Rejection sampled.
  uint64_t UniformBelow(uint64_t bound);
  bool NextBit();

  // Derives an independent child generator; children with distinct labels
  // produce independent streams (used to hand each party its own RNG).
  SecureRng Fork(std::string_view label);

 private:
  void Refill();

  ChaCha20 stream_;
  std::array<uint8_t, ChaCha20::kBlockSize> buffer_;
  size_t available_ = 0;
  Seed seed_;

  // Bit-level buffer for NextBit.
  uint8_t bit_buffer_ = 0;
  int bits_left_ = 0;
};

}  // namespace vdp

#endif  // SRC_COMMON_RNG_H_
