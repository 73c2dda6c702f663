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
//
// PowP58Batch raises many independent inputs to (p-5)/8 at once, the one
// exponentiation behind Sqrt, SqrtRatio and IsSquare, so that a strict point
// decoder can run many encodings in lockstep. Its kernel is chosen once per
// process from CPUID, as SHA-256's is: eight lanes of radix-2^51 limbs in
// AVX-512 IFMA registers when the CPU reports IFMA and the OS saves the ZMM
// state, else four interleaved scalar chains. Both give the same field
// elements; the portable one is also the oracle the kernel test checks the
// vector one against.
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

  // out[i] = in[i]^((p-5)/8) for i < n, on the kernel named by
  // fe25519_internal::BatchKernelName(). `in` and `out` may alias.
  static void PowP58Batch(const Fe25519* in, Fe25519* out, size_t n);

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

  // The steps of Sqrt, SqrtRatio and IsSquare that follow their one
  // exponentiation, for callers that raise many radicands in one
  // PowP58Batch. `pow` is the PowP58 of the radicand: *this for SqrtGivenPow
  // and IsSquareGivenPow, u v^7 (from SqrtRatioRadicand) for
  // SqrtRatioGivenPow, whose uv3 is u v^3.
  std::optional<Fe25519> SqrtGivenPow(const Fe25519& pow) const;
  bool IsSquareGivenPow(const Fe25519& pow) const;
  static Fe25519 SqrtRatioRadicand(const Fe25519& u, const Fe25519& v, Fe25519* uv3);
  static std::optional<Fe25519> SqrtRatioGivenPow(const Fe25519& u, const Fe25519& v,
                                                  const Fe25519& uv3, const Fe25519& pow);

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

  // The radix-2^51 limbs, least significant first. FromLimbs takes limbs up
  // to the loose bound kLooseLimb, the most any kernel leaves or accepts
  // (see v_ below); the batch kernels convert through these.
  static constexpr uint64_t kLooseLimb = (uint64_t{1} << 51) + (uint64_t{1} << 14);
  static Fe25519 FromLimbs(const std::array<uint64_t, 5>& limbs) {
    Fe25519 r;
    for (int i = 0; i < 5; ++i) {
      r.v_[i] = limbs[i];
    }
    return r;
  }
  std::array<uint64_t, 5> Limbs() const { return {v_[0], v_[1], v_[2], v_[3], v_[4]}; }

 private:
  static constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;
  // 2p limb constants so Sub never underflows for loosely reduced inputs.
  static constexpr uint64_t kTwoP0 = 0xfffffffffffda;    // 2 * (2^51 - 19)
  static constexpr uint64_t kTwoP1234 = 0xffffffffffffe; // 2 * (2^51 - 1)

  // Carry-and-fold a product in 128-bit column accumulators back to 5
  // loosely reduced radix-51 limbs. With inputs < 2^54, t4 (the one column
  // without a 19 factor) is < 5 * 2^108 + 2^64, so c = t4 >> 51 is below
  // 5 * 2^57 + 2^13 and r0 + 19 * c stays below 2^51 + 95 * 2^57 + 2^18 <
  // 2^64. The final carry out of r0 is then < 2^14: every output limb is
  // < 2^51 except r1, which is < 2^51 + 2^14.
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

  // Weak reduction in one pass: every carry is read from the input limbs,
  // then all five are added at once (no carry waits on the previous one).
  // Add and Sub feed it limbs < 2^53, so each carry is at most 3 and the
  // output limbs are < 2^51 + 57 (limb 0, which takes 19 * c4) and < 2^51 + 3.
  void CarryReduce() {
    const uint64_t c0 = v_[0] >> 51;
    const uint64_t c1 = v_[1] >> 51;
    const uint64_t c2 = v_[2] >> 51;
    const uint64_t c3 = v_[3] >> 51;
    const uint64_t c4 = v_[4] >> 51;
    v_[0] = (v_[0] & kMask51) + 19 * c4;
    v_[1] = (v_[1] & kMask51) + c0;
    v_[2] = (v_[2] & kMask51) + c1;
    v_[3] = (v_[3] & kMask51) + c2;
    v_[4] = (v_[4] & kMask51) + c3;
  }

  // Limbs in radix 2^51. Between operations every limb is < 2^51 + 2^14 < 2^52
  // (FromWide's r1 is the largest; CarryReduce, FromU64 and FromBytes stay
  // below it), which is all the kernels need:
  //   - Add: a + b < 2^53 fits, and CarryReduce brings it back.
  //   - Sub: a + 2p - b never underflows, since every subtrahend limb is
  //     below the 2p limbs kTwoP0 = 2^52 - 38 and kTwoP1234 = 2^52 - 2.
  //   - Mul / Square: inputs < 2^54 keep FromWide's 19 * c below 2^64 (the
  //     doubled operands of Square are < 2^53).
  // Only ToBytes reduces strictly, to limbs < 2^51 and a value < p.
  uint64_t v_[5];
};

// The two PowP58Batch kernels, for the kernel test and the group-ops bench.
// Each computes out[i] = in[i]^((p-5)/8) for i < n from inputs whose limbs
// are below Fe25519::kLooseLimb; `in` and `out` may alias.
namespace fe25519_internal {

// Four independent Fe25519 chains interleaved (fewer for a tail).
void PowP58Portable(const Fe25519* in, Fe25519* out, size_t n);

// Null when the CPU reports AVX-512F and AVX-512 IFMA and the OS saves the
// opmask and ZMM registers (XGETBV), so PowP58Ifma may run; else the first
// missing piece: "x86-64", "osxsave", "avx512f", "avx512ifma" or
// "zmm-state".
const char* MissingIfmaFeature();
inline bool HasIfma() { return MissingIfmaFeature() == nullptr; }

#if defined(__x86_64__)
// Eight lanes per AVX-512 IFMA vector; a short tail pads its vector.
void PowP58Ifma(const Fe25519* in, Fe25519* out, size_t n);
#endif

// "ifma8" or "portable4": the kernel PowP58Batch runs on this CPU.
const char* BatchKernelName();

}  // namespace fe25519_internal

}  // namespace vdp

#endif  // SRC_GROUP_ED25519_FIELD_H_
