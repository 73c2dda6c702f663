// Fixed-width multi-precision unsigned integers.
//
// BigInt<L> holds L little-endian 64-bit limbs on the stack. All sizes the
// library needs (256..4096 bits) are known at compile time, so there is no
// heap traffic in any arithmetic path. Multiplication returns a double-width
// result; reduction is done either by binary long division (cold paths) or
// Montgomery arithmetic (hot paths, see montgomery.h).
#ifndef SRC_MATH_BIGINT_H_
#define SRC_MATH_BIGINT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/hex.h"

namespace vdp {

// 128-bit limb-arithmetic helper. The __extension__ marker keeps the
// GCC/Clang builtin type usable under -Wpedantic.
__extension__ typedef unsigned __int128 uint128_t;

template <size_t L>
struct BigInt {
  static_assert(L >= 1);
  static constexpr size_t kLimbs = L;
  static constexpr size_t kBytes = L * 8;
  static constexpr size_t kBits = L * 64;

  std::array<uint64_t, L> limb{};

  static constexpr BigInt Zero() { return BigInt{}; }

  static constexpr BigInt One() {
    BigInt r;
    r.limb[0] = 1;
    return r;
  }

  static constexpr BigInt FromU64(uint64_t v) {
    BigInt r;
    r.limb[0] = v;
    return r;
  }

  bool IsZero() const {
    for (uint64_t w : limb) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  bool IsOdd() const { return (limb[0] & 1) != 0; }

  // -1, 0, +1 for <, ==, >.
  int Compare(const BigInt& other) const {
    for (size_t i = L; i-- > 0;) {
      if (limb[i] != other.limb[i]) {
        return limb[i] < other.limb[i] ? -1 : 1;
      }
    }
    return 0;
  }

  friend bool operator==(const BigInt& a, const BigInt& b) { return a.Compare(b) == 0; }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return a.Compare(b) != 0; }
  friend bool operator<(const BigInt& a, const BigInt& b) { return a.Compare(b) < 0; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return a.Compare(b) <= 0; }
  friend bool operator>(const BigInt& a, const BigInt& b) { return a.Compare(b) > 0; }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return a.Compare(b) >= 0; }

  // out = a + b; returns the carry bit.
  static uint64_t AddInto(BigInt& out, const BigInt& a, const BigInt& b) {
    uint64_t carry = 0;
    for (size_t i = 0; i < L; ++i) {
      uint128_t s =
          static_cast<uint128_t>(a.limb[i]) + b.limb[i] + carry;
      out.limb[i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    return carry;
  }

  // out = a - b; returns the borrow bit.
  static uint64_t SubInto(BigInt& out, const BigInt& a, const BigInt& b) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < L; ++i) {
      uint128_t d = static_cast<uint128_t>(a.limb[i]) -
                            b.limb[i] - borrow;
      out.limb[i] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>((d >> 64) & 1);
    }
    return borrow;
  }

  bool Bit(size_t i) const { return ((limb[i / 64] >> (i % 64)) & 1) != 0; }

  void SetBit(size_t i) { limb[i / 64] |= (uint64_t{1} << (i % 64)); }

  // Index of the highest set bit plus one; 0 for zero.
  size_t BitLength() const {
    for (size_t i = L; i-- > 0;) {
      if (limb[i] != 0) {
        return i * 64 + (64 - static_cast<size_t>(__builtin_clzll(limb[i])));
      }
    }
    return 0;
  }

  // Shifts left by one bit; returns the bit shifted out of the top.
  uint64_t ShiftLeft1() {
    uint64_t carry = 0;
    for (size_t i = 0; i < L; ++i) {
      uint64_t next = limb[i] >> 63;
      limb[i] = (limb[i] << 1) | carry;
      carry = next;
    }
    return carry;
  }

  void ShiftRight1() {
    for (size_t i = 0; i < L; ++i) {
      uint64_t high = (i + 1 < L) ? (limb[i + 1] << 63) : 0;
      limb[i] = (limb[i] >> 1) | high;
    }
  }

  // Widens (or truncates; caller must know high limbs are zero when N < L).
  template <size_t N>
  BigInt<N> Resize() const {
    BigInt<N> r;
    for (size_t i = 0; i < std::min(N, L); ++i) {
      r.limb[i] = limb[i];
    }
    return r;
  }

  // Big-endian fixed-width byte encoding (kBytes bytes).
  std::array<uint8_t, kBytes> ToArrayBe() const {
    std::array<uint8_t, kBytes> out;
    for (size_t i = 0; i < L; ++i) {
      uint64_t w = limb[L - 1 - i];
      for (int b = 0; b < 8; ++b) {
        out[i * 8 + b] = static_cast<uint8_t>(w >> (56 - 8 * b));
      }
    }
    return out;
  }
  Bytes ToBytesBe() const {
    const std::array<uint8_t, kBytes> out = ToArrayBe();
    return Bytes(out.begin(), out.end());
  }

  // Parses big-endian bytes; fails if the value needs more than kBytes bytes.
  static std::optional<BigInt> FromBytesBe(BytesView bytes) {
    if (bytes.size() > kBytes) {
      // Permit oversized input only when the extra leading bytes are zero.
      size_t extra = bytes.size() - kBytes;
      for (size_t i = 0; i < extra; ++i) {
        if (bytes[i] != 0) {
          return std::nullopt;
        }
      }
      bytes = bytes.subspan(extra);
    }
    BigInt r;
    size_t n = bytes.size();
    for (size_t i = 0; i < n; ++i) {
      size_t bit_pos = (n - 1 - i) * 8;
      r.limb[bit_pos / 64] |= static_cast<uint64_t>(bytes[i]) << (bit_pos % 64);
    }
    return r;
  }

  std::string ToHex() const { return HexEncode(ToBytesBe()); }

  static std::optional<BigInt> FromHex(const std::string& hex) {
    // Accept odd-length hex by implicit leading zero.
    std::string padded = (hex.size() % 2 == 0) ? hex : "0" + hex;
    auto bytes = HexDecode(padded);
    if (!bytes.has_value()) {
      return std::nullopt;
    }
    return FromBytesBe(*bytes);
  }
};

// Full schoolbook product: (A limbs) x (B limbs) -> (A+B limbs), exact.
template <size_t A, size_t B>
BigInt<A + B> Mul(const BigInt<A>& a, const BigInt<B>& b) {
  BigInt<A + B> r;
  for (size_t i = 0; i < A; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < B; ++j) {
      uint128_t s = static_cast<uint128_t>(a.limb[i]) * b.limb[j] +
                            r.limb[i + j] + carry;
      r.limb[i + j] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    r.limb[i + B] += carry;
  }
  return r;
}

template <size_t N, size_t L>
struct DivModResult {
  BigInt<N> quotient;
  BigInt<L> remainder;
};

// Binary long division. O(64N * L): fine for setup/cold paths; hot paths use
// Montgomery reduction instead. Divisor must be nonzero.
template <size_t N, size_t L>
DivModResult<N, L> DivMod(const BigInt<N>& dividend, const BigInt<L>& divisor) {
  DivModResult<N, L> result;
  BigInt<L>& rem = result.remainder;
  for (size_t i = 64 * N; i-- > 0;) {
    uint64_t carry_out = rem.ShiftLeft1();
    if (dividend.Bit(i)) {
      rem.limb[0] |= 1;
    }
    if (carry_out != 0) {
      // True remainder is rem + 2^(64L) >= divisor; wrapping subtraction is exact.
      BigInt<L>::SubInto(rem, rem, divisor);
      result.quotient.SetBit(i);
    } else if (rem >= divisor) {
      BigInt<L>::SubInto(rem, rem, divisor);
      result.quotient.SetBit(i);
    }
  }
  return result;
}

// a mod m for a double-width value (convenience wrapper).
template <size_t N, size_t L>
BigInt<L> Mod(const BigInt<N>& a, const BigInt<L>& m) {
  return DivMod(a, m).remainder;
}

// (a + b) mod m. Requires a, b < m.
template <size_t L>
BigInt<L> AddMod(const BigInt<L>& a, const BigInt<L>& b, const BigInt<L>& m) {
  BigInt<L> r;
  uint64_t carry = BigInt<L>::AddInto(r, a, b);
  if (carry != 0 || r >= m) {
    BigInt<L>::SubInto(r, r, m);
  }
  return r;
}

// (a - b) mod m. Requires a, b < m.
template <size_t L>
BigInt<L> SubMod(const BigInt<L>& a, const BigInt<L>& b, const BigInt<L>& m) {
  BigInt<L> r;
  uint64_t borrow = BigInt<L>::SubInto(r, a, b);
  if (borrow != 0) {
    BigInt<L>::AddInto(r, r, m);
  }
  return r;
}

// Slow general modular multiplication (cold paths only).
template <size_t L>
BigInt<L> MulMod(const BigInt<L>& a, const BigInt<L>& b, const BigInt<L>& m) {
  return Mod(Mul(a, b), m);
}

}  // namespace vdp

#endif  // SRC_MATH_BIGINT_H_
