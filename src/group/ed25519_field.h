// Field arithmetic modulo 2^255 - 19 with 5 radix-51 limbs (portable).
//
// Backs the Edwards25519 group, the library's elliptic-curve instantiation of
// the commitment scheme (the paper benchmarks "Pedersen commitments over
// elliptic curves using the prime order Ristretto group"; see DESIGN.md for
// the cofactor-clearing substitution).
//
// The hot operations (Mul, Square, Add, Sub) are defined inline here so the
// point formulas in ed25519.cc compile into straight-line uint128 arithmetic
// instead of per-operation function calls; everything cold (codec, Pow, Sqrt)
// stays in ed25519_field.cc.
#ifndef SRC_GROUP_ED25519_FIELD_H_
#define SRC_GROUP_ED25519_FIELD_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/common/bytes.h"
#include "src/math/bigint.h"

namespace vdp {

class Fe25519 {
 public:
  static constexpr size_t kEncodedSize = 32;

  constexpr Fe25519() : v_{0, 0, 0, 0, 0} {}

  static Fe25519 Zero() { return Fe25519(); }
  static Fe25519 One() { return FromU64(1); }
  static Fe25519 FromU64(uint64_t x) {
    Fe25519 r;
    r.v_[0] = x & kMask51;
    r.v_[1] = x >> 51;
    return r;
  }

  static Fe25519 Add(const Fe25519& a, const Fe25519& b) {
    Fe25519 r;
    for (int i = 0; i < 5; ++i) {
      r.v_[i] = a.v_[i] + b.v_[i];
    }
    r.CarryReduce();
    return r;
  }

  static Fe25519 Sub(const Fe25519& a, const Fe25519& b) {
    Fe25519 r;
    r.v_[0] = a.v_[0] + kTwoP0 - b.v_[0];
    r.v_[1] = a.v_[1] + kTwoP1234 - b.v_[1];
    r.v_[2] = a.v_[2] + kTwoP1234 - b.v_[2];
    r.v_[3] = a.v_[3] + kTwoP1234 - b.v_[3];
    r.v_[4] = a.v_[4] + kTwoP1234 - b.v_[4];
    r.CarryReduce();
    return r;
  }

  static Fe25519 Mul(const Fe25519& a, const Fe25519& b) {
    using u128 = uint128_t;
    const uint64_t a0 = a.v_[0], a1 = a.v_[1], a2 = a.v_[2], a3 = a.v_[3], a4 = a.v_[4];
    const uint64_t b0 = b.v_[0], b1 = b.v_[1], b2 = b.v_[2], b3 = b.v_[3], b4 = b.v_[4];
    const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;

    u128 t0 = static_cast<u128>(a0) * b0 + static_cast<u128>(a1) * b4_19 +
              static_cast<u128>(a2) * b3_19 + static_cast<u128>(a3) * b2_19 +
              static_cast<u128>(a4) * b1_19;
    u128 t1 = static_cast<u128>(a0) * b1 + static_cast<u128>(a1) * b0 +
              static_cast<u128>(a2) * b4_19 + static_cast<u128>(a3) * b3_19 +
              static_cast<u128>(a4) * b2_19;
    u128 t2 = static_cast<u128>(a0) * b2 + static_cast<u128>(a1) * b1 +
              static_cast<u128>(a2) * b0 + static_cast<u128>(a3) * b4_19 +
              static_cast<u128>(a4) * b3_19;
    u128 t3 = static_cast<u128>(a0) * b3 + static_cast<u128>(a1) * b2 +
              static_cast<u128>(a2) * b1 + static_cast<u128>(a3) * b0 +
              static_cast<u128>(a4) * b4_19;
    u128 t4 = static_cast<u128>(a0) * b4 + static_cast<u128>(a1) * b3 +
              static_cast<u128>(a2) * b2 + static_cast<u128>(a3) * b1 +
              static_cast<u128>(a4) * b0;
    return FromWide(t0, t1, t2, t3, t4);
  }

  // Dedicated squaring: 15 uint128 products instead of Mul's 25 (the
  // off-diagonal terms are computed once and doubled). Exponentiation chains
  // -- scalar-mult doublings, Invert, Sqrt -- are mostly squarings.
  static Fe25519 Square(const Fe25519& a) {
    using u128 = uint128_t;
    const uint64_t a0 = a.v_[0], a1 = a.v_[1], a2 = a.v_[2], a3 = a.v_[3], a4 = a.v_[4];
    const uint64_t a0_2 = 2 * a0, a1_2 = 2 * a1, a2_2 = 2 * a2, a3_2 = 2 * a3;
    const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;

    u128 t0 = static_cast<u128>(a0) * a0 + static_cast<u128>(a1_2) * a4_19 +
              static_cast<u128>(a2_2) * a3_19;
    u128 t1 = static_cast<u128>(a0_2) * a1 + static_cast<u128>(a2_2) * a4_19 +
              static_cast<u128>(a3) * a3_19;
    u128 t2 = static_cast<u128>(a0_2) * a2 + static_cast<u128>(a1) * a1 +
              static_cast<u128>(a3_2) * a4_19;
    u128 t3 = static_cast<u128>(a0_2) * a3 + static_cast<u128>(a1_2) * a2 +
              static_cast<u128>(a4) * a4_19;
    u128 t4 = static_cast<u128>(a0_2) * a4 + static_cast<u128>(a1_2) * a3 +
              static_cast<u128>(a2) * a2;
    return FromWide(t0, t1, t2, t3, t4);
  }

  static Fe25519 Neg(const Fe25519& a) { return Sub(Zero(), a); }

  // a^e for an arbitrary 256-bit exponent (square-and-multiply).
  static Fe25519 Pow(const Fe25519& a, const BigInt<4>& e);

  // Multiplicative inverse a^(p-2) via the standard curve25519 addition chain
  // (254 squarings + 11 multiplications); Zero maps to Zero.
  Fe25519 Invert() const;

  // a^((p-5)/8) = a^(2^252 - 3) via the same addition chain as Invert (252
  // squarings + 11 multiplications): the shared core of Sqrt, SqrtRatio and
  // IsSquare.
  Fe25519 PowP58() const;

  // Square root if one exists (p = 5 mod 8 method: a^((p+3)/8), fixed up
  // by sqrt(-1)). Returns nullopt for non-residues. The returned root is the
  // principal one; callers pick sign.
  std::optional<Fe25519> Sqrt() const;

  // x with v * x^2 = u, if one exists: RFC 8032 section 5.1.3's fused
  // x = u v^3 (u v^7)^((p-5)/8), one exponentiation instead of an inversion
  // plus a square root. For v = 0 the result is 0 when u = 0, else nullopt.
  static std::optional<Fe25519> SqrtRatio(const Fe25519& u, const Fe25519& v);

  // Euler's criterion a^((p-1)/2) != -1: true for zero and for every
  // quadratic residue. Costs one PowP58.
  bool IsSquare() const;

  // sqrt(-1) = 2^((p-1)/4).
  static const Fe25519& SqrtM1();

  bool IsZero() const;
  // Sign convention of RFC 8032: "negative" iff the canonical encoding is odd.
  bool IsNegative() const;

  friend bool operator==(const Fe25519& a, const Fe25519& b);
  friend bool operator!=(const Fe25519& a, const Fe25519& b) { return !(a == b); }

  // Canonical little-endian 32-byte encoding (fully reduced).
  std::array<uint8_t, kEncodedSize> ToBytes() const;

  // Strict decode: rejects values >= p and wrong lengths. Bit 255 must be 0
  // (point codecs strip the sign bit before calling this).
  static std::optional<Fe25519> FromBytes(BytesView bytes);

  // Conversion to/from the generic big-integer type (for cross-validation).
  BigInt<4> ToBigInt() const;
  static Fe25519 FromBigInt(const BigInt<4>& v);  // value must be < p

  static const BigInt<4>& P();  // 2^255 - 19

 private:
  static constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;
  // 2p limb constants so Sub never underflows for loosely reduced inputs.
  static constexpr uint64_t kTwoP0 = 0xfffffffffffda;    // 2 * (2^51 - 19)
  static constexpr uint64_t kTwoP1234 = 0xffffffffffffe; // 2 * (2^51 - 1)

  // Carry-and-fold a product in 128-bit column accumulators back to 5 loosely
  // reduced radix-51 limbs.
  static Fe25519 FromWide(uint128_t t0, uint128_t t1, uint128_t t2, uint128_t t3,
                          uint128_t t4) {
    Fe25519 r;
    uint64_t c;
    r.v_[0] = static_cast<uint64_t>(t0) & kMask51;
    c = static_cast<uint64_t>(t0 >> 51);
    t1 += c;
    r.v_[1] = static_cast<uint64_t>(t1) & kMask51;
    c = static_cast<uint64_t>(t1 >> 51);
    t2 += c;
    r.v_[2] = static_cast<uint64_t>(t2) & kMask51;
    c = static_cast<uint64_t>(t2 >> 51);
    t3 += c;
    r.v_[3] = static_cast<uint64_t>(t3) & kMask51;
    c = static_cast<uint64_t>(t3 >> 51);
    t4 += c;
    r.v_[4] = static_cast<uint64_t>(t4) & kMask51;
    c = static_cast<uint64_t>(t4 >> 51);
    r.v_[0] += 19 * c;
    c = r.v_[0] >> 51;
    r.v_[0] &= kMask51;
    r.v_[1] += c;
    return r;
  }

  void CarryReduce() {
    // Two passes bring every limb below 2^51 + epsilon and keep value mod p.
    for (int pass = 0; pass < 2; ++pass) {
      uint64_t c;
      c = v_[0] >> 51;
      v_[0] &= kMask51;
      v_[1] += c;
      c = v_[1] >> 51;
      v_[1] &= kMask51;
      v_[2] += c;
      c = v_[2] >> 51;
      v_[2] &= kMask51;
      v_[3] += c;
      c = v_[3] >> 51;
      v_[3] &= kMask51;
      v_[4] += c;
      c = v_[4] >> 51;
      v_[4] &= kMask51;
      v_[0] += 19 * c;
    }
  }

  // Limbs in radix 2^51; loosely reduced (each < 2^52) between operations.
  uint64_t v_[5];
};

}  // namespace vdp

#endif  // SRC_GROUP_ED25519_FIELD_H_
