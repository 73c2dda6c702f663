// Montgomery arithmetic over an odd modulus (CIOS multiplication).
//
// MontgomeryCtx<L> precomputes everything needed for fast modular
// multiplication, exponentiation and (for prime moduli) inversion. Values are
// passed in plain representation; the context converts internally. This is
// the single hot loop of the whole library: every commitment, proof and
// verification reduces to ExpMod calls.
#ifndef SRC_MATH_MONTGOMERY_H_
#define SRC_MATH_MONTGOMERY_H_

#include <stdexcept>

#include "src/math/bigint.h"

namespace vdp {

template <size_t L>
class MontgomeryCtx {
 public:
  // modulus must be odd and > 1.
  explicit MontgomeryCtx(const BigInt<L>& modulus) : m_(modulus) {
    if (!modulus.IsOdd() || modulus <= BigInt<L>::One()) {
      throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
    }
    // m0inv_ = -m^{-1} mod 2^64 via Newton iteration.
    uint64_t inv = 1;
    for (int i = 0; i < 6; ++i) {
      inv *= 2 - m_.limb[0] * inv;
    }
    m0inv_ = ~inv + 1;  // negate mod 2^64

    // r_ = 2^(64L) mod m; r2_ = r_^2 mod m (computed by 64L modular doublings).
    BigInt<L> r = ComputeR();
    r_ = r;
    BigInt<L> r2 = r;
    for (size_t i = 0; i < 64 * L; ++i) {
      r2 = AddMod(r2, r2, m_);
    }
    r2_ = r2;
  }

  const BigInt<L>& modulus() const { return m_; }
  const BigInt<L>& r() const { return r_; }
  const BigInt<L>& r2() const { return r2_; }

  BigInt<L> ToMont(const BigInt<L>& a) const { return MulMont(a, r2_); }
  BigInt<L> FromMont(const BigInt<L>& a) const { return MulMont(a, BigInt<L>::One()); }

  // Montgomery product: a * b * R^{-1} mod m (CIOS).
  BigInt<L> MulMont(const BigInt<L>& a, const BigInt<L>& b) const {
    uint64_t t[L + 2] = {0};
    for (size_t i = 0; i < L; ++i) {
      // t += a[i] * b
      uint64_t carry = 0;
      for (size_t j = 0; j < L; ++j) {
        uint128_t s =
            static_cast<uint128_t>(a.limb[i]) * b.limb[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      uint128_t s = static_cast<uint128_t>(t[L]) + carry;
      t[L] = static_cast<uint64_t>(s);
      t[L + 1] = static_cast<uint64_t>(s >> 64);

      // Reduce: add u * m where u makes the low limb vanish, then shift.
      uint64_t u = t[0] * m0inv_;
      uint128_t s2 = static_cast<uint128_t>(u) * m_.limb[0] + t[0];
      carry = static_cast<uint64_t>(s2 >> 64);
      for (size_t j = 1; j < L; ++j) {
        uint128_t s3 =
            static_cast<uint128_t>(u) * m_.limb[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(s3);
        carry = static_cast<uint64_t>(s3 >> 64);
      }
      uint128_t s4 = static_cast<uint128_t>(t[L]) + carry;
      t[L - 1] = static_cast<uint64_t>(s4);
      t[L] = t[L + 1] + static_cast<uint64_t>(s4 >> 64);
      t[L + 1] = 0;
    }

    BigInt<L> result;
    for (size_t i = 0; i < L; ++i) {
      result.limb[i] = t[i];
    }
    if (t[L] != 0 || result >= m_) {
      BigInt<L>::SubInto(result, result, m_);
    }
    return result;
  }

  // Montgomery square: a * a * R^{-1} mod m. Squaring computes the L(L-1)/2
  // off-diagonal products once and doubles them, so it beats MulMont by
  // ~L/(L+... in practice ~20% -- and exponentiation is mostly squarings.
  BigInt<L> SqrMont(const BigInt<L>& a) const {
    uint64_t t[2 * L + 1] = {0};
    // Off-diagonal products a[i] * a[j], j > i.
    for (size_t i = 0; i < L; ++i) {
      uint64_t carry = 0;
      for (size_t j = i + 1; j < L; ++j) {
        uint128_t s = static_cast<uint128_t>(a.limb[i]) * a.limb[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      t[i + L] = carry;  // slot i+L is first written here (j < L forces i' > i)
    }
    // Double them, then add the diagonal squares a[i]^2 at position 2i.
    uint64_t carry = 0;
    for (size_t k = 0; k < 2 * L; ++k) {
      uint64_t hi = t[k] >> 63;
      t[k] = (t[k] << 1) | carry;
      carry = hi;
    }
    t[2 * L] = carry;
    carry = 0;
    for (size_t i = 0; i < L; ++i) {
      uint128_t sq = static_cast<uint128_t>(a.limb[i]) * a.limb[i];
      uint128_t lo = static_cast<uint128_t>(t[2 * i]) + static_cast<uint64_t>(sq) + carry;
      t[2 * i] = static_cast<uint64_t>(lo);
      uint128_t hi = static_cast<uint128_t>(t[2 * i + 1]) + static_cast<uint64_t>(sq >> 64) +
                     static_cast<uint64_t>(lo >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(hi);
      carry = static_cast<uint64_t>(hi >> 64);
    }
    t[2 * L] += carry;
    // REDC: cancel the low L limbs; the result is t / R, one subtraction away
    // from canonical (t < 2mR throughout, the standard REDC bound).
    for (size_t i = 0; i < L; ++i) {
      uint64_t u = t[i] * m0inv_;
      uint64_t c = 0;
      for (size_t j = 0; j < L; ++j) {
        uint128_t s = static_cast<uint128_t>(u) * m_.limb[j] + t[i + j] + c;
        t[i + j] = static_cast<uint64_t>(s);
        c = static_cast<uint64_t>(s >> 64);
      }
      for (size_t k = i + L; c != 0 && k <= 2 * L; ++k) {
        uint128_t s = static_cast<uint128_t>(t[k]) + c;
        t[k] = static_cast<uint64_t>(s);
        c = static_cast<uint64_t>(s >> 64);
      }
    }
    BigInt<L> result;
    for (size_t i = 0; i < L; ++i) {
      result.limb[i] = t[L + i];
    }
    if (t[2 * L] != 0 || result >= m_) {
      BigInt<L>::SubInto(result, result, m_);
    }
    return result;
  }

  // a * b mod m for plain-representation inputs (one extra Montgomery step).
  BigInt<L> MulMod(const BigInt<L>& a, const BigInt<L>& b) const {
    return MulMont(ToMont(a), b);
  }

  // base^exp mod m (plain in, plain out). 4-bit fixed window.
  template <size_t E>
  BigInt<L> ExpMod(const BigInt<L>& base, const BigInt<E>& exp) const {
    size_t exp_bits = exp.BitLength();
    if (exp_bits == 0) {
      return BigInt<L>::One();
    }
    BigInt<L> base_m = ToMont(base);

    // table[i] = base^i in Montgomery form, i in [0, 16).
    BigInt<L> table[16];
    table[0] = r_;  // 1 in Montgomery form
    table[1] = base_m;
    for (int i = 2; i < 16; ++i) {
      table[i] = MulMont(table[i - 1], base_m);
    }

    size_t windows = (exp_bits + 3) / 4;
    BigInt<L> acc = r_;
    for (size_t w = windows; w-- > 0;) {
      for (int s = 0; s < 4; ++s) {
        acc = SqrMont(acc);
      }
      uint32_t nib = 0;
      for (int b = 3; b >= 0; --b) {
        size_t bit = w * 4 + static_cast<size_t>(b);
        nib = (nib << 1) | ((bit < exp_bits && exp.Bit(bit)) ? 1u : 0u);
      }
      if (nib != 0) {
        acc = MulMont(acc, table[nib]);
      }
    }
    return FromMont(acc);
  }

  // Modular inverse via Fermat (requires m prime, a != 0 mod m).
  BigInt<L> Inverse(const BigInt<L>& a) const {
    BigInt<L> exp = m_;
    BigInt<L> two = BigInt<L>::FromU64(2);
    BigInt<L>::SubInto(exp, exp, two);
    return ExpMod(a, exp);
  }

 private:
  BigInt<L> ComputeR() const {
    // 2^(64L) mod m via division of the (L+1)-limb value 2^(64L).
    BigInt<L + 1> pow2;
    pow2.limb[L] = 1;
    return DivMod(pow2, m_).remainder;
  }

  BigInt<L> m_;
  BigInt<L> r_;
  BigInt<L> r2_;
  uint64_t m0inv_ = 0;
};

}  // namespace vdp

#endif  // SRC_MATH_MONTGOMERY_H_
