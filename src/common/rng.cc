#include "src/common/rng.h"

#include <cstring>
#include <random>

#include "src/common/sha256.h"

namespace vdp {
namespace {

constexpr std::array<uint8_t, ChaCha20::kNonceSize> kDrbgNonce = {'v', 'd', 'p', '-', 'd', 'r',
                                                                  'b', 'g', '-', 'v', '1', 0};

ChaCha20 MakeStream(const SecureRng::Seed& seed) {
  std::array<uint8_t, ChaCha20::kKeySize> key;
  std::memcpy(key.data(), seed.data(), key.size());
  return ChaCha20(key, kDrbgNonce);
}

}  // namespace

SecureRng::SecureRng(const Seed& seed) : stream_(MakeStream(seed)), seed_(seed) {}

SecureRng::SecureRng(const std::string& label)
    : SecureRng([&label] {
        Sha256::Digest d = Sha256::TaggedHash(StrView("vdp/rng-label"), StrView(label));
        Seed s;
        std::memcpy(s.data(), d.data(), s.size());
        return s;
      }()) {}

SecureRng SecureRng::FromEntropy() {
  // The one sanctioned use: OS entropy seeding the ChaCha20 DRBG itself.
  std::random_device rd;  // vdp-lint: allow(rng)
  Seed seed;
  for (size_t i = 0; i < seed.size(); i += 4) {
    uint32_t word = rd();
    std::memcpy(seed.data() + i, &word, 4);
  }
  return SecureRng(seed);
}

void SecureRng::Refill() {
  stream_.NextBlock(buffer_.data());
  available_ = buffer_.size();
}

void SecureRng::FillBytes(uint8_t* out, size_t len) {
  while (len > 0) {
    if (available_ == 0) {
      Refill();
    }
    size_t take = std::min(len, available_);
    std::memcpy(out, buffer_.data() + (buffer_.size() - available_), take);
    available_ -= take;
    out += take;
    len -= take;
  }
}

Bytes SecureRng::RandomBytes(size_t len) {
  Bytes out(len);
  FillBytes(out.data(), len);
  return out;
}

uint64_t SecureRng::NextU64() {
  uint8_t raw[8];
  FillBytes(raw, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(raw[i]) << (8 * i);
  }
  return v;
}

uint64_t SecureRng::UniformBelow(uint64_t bound) {
  // Rejection sampling over the largest multiple of bound below 2^64.
  uint64_t threshold = (0 - bound) % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t v = NextU64();
    if (v >= threshold) {
      return v % bound;
    }
  }
}

bool SecureRng::NextBit() {
  if (bits_left_ == 0) {
    FillBytes(&bit_buffer_, 1);
    bits_left_ = 8;
  }
  bool bit = (bit_buffer_ & 1) != 0;
  bit_buffer_ >>= 1;
  --bits_left_;
  return bit;
}

SecureRng SecureRng::Fork(std::string_view label) {
  Sha256 h;
  h.Update(StrView("vdp/rng-fork"));
  h.Update(BytesView(seed_.data(), seed_.size()));
  // Mix in the current stream position so repeated forks with the same label
  // from different states stay independent.
  uint8_t fresh[32];
  FillBytes(fresh, sizeof(fresh));
  h.Update(BytesView(fresh, sizeof(fresh)));
  h.Update(StrView(label));
  Sha256::Digest d = h.Finalize();
  Seed child;
  std::memcpy(child.data(), d.data(), child.size());
  return SecureRng(child);
}

}  // namespace vdp
