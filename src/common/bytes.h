// Byte-buffer primitives shared by every module.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vdp {

using Bytes = std::vector<uint8_t>;
using BytesView = std::span<const uint8_t>;

// Compares two buffers in time independent of their contents (lengths may leak).
inline bool ConstantTimeEqual(BytesView a, BytesView b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

inline Bytes Concat(BytesView a, BytesView b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

inline Bytes ToBytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

inline BytesView StrView(std::string_view s) {
  return BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Overwrites a secret buffer before it is released. The volatile pointer stops
// the compiler from eliding the store.
inline void SecureWipe(Bytes& buf) {
  volatile uint8_t* p = buf.data();
  for (size_t i = 0; i < buf.size(); ++i) {
    p[i] = 0;
  }
}

}  // namespace vdp

#endif  // SRC_COMMON_BYTES_H_
