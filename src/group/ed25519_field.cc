#include "src/group/ed25519_field.h"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace vdp {
namespace {

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// N independent field elements stepped together. Every step applies one
// operation to each of them in an unrolled sequence, so the N products have
// no data dependence on each other and their multiplications overlap in the
// pipeline: four chains cost less than four times one.
template <size_t N>
using Chains = std::array<Fe25519, N>;

template <size_t N>
inline Chains<N> MulChains(const Chains<N>& a, const Chains<N>& b) {
  Chains<N> r;
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((r[I] = Fe25519::Mul(a[I], b[I])), ...);
  }(std::make_index_sequence<N>{});
  return r;
}

// k consecutive squarings of each chain.
template <size_t N>
inline Chains<N> SquareChains(Chains<N> a, int k) {
  for (int i = 0; i < k; ++i) {
    [&]<size_t... I>(std::index_sequence<I...>) {
      ((a[I] = Fe25519::Square(a[I])), ...);
    }(std::make_index_sequence<N>{});
  }
  return a;
}

// The shared prefix of the curve25519 addition chains: returns a^(2^250 - 1)
// and sets *z11 = a^11 (250 squarings + 10 multiplications).
template <size_t N>
Chains<N> Pow2250Minus1(const Chains<N>& a, Chains<N>* z11) {
  Chains<N> z2 = SquareChains(a, 1);                                    // 2
  Chains<N> z9 = MulChains(SquareChains(z2, 2), a);                     // 9
  *z11 = MulChains(z9, z2);                                             // 11
  Chains<N> z2_5_0 = MulChains(SquareChains(*z11, 1), z9);              // 2^5 - 1
  Chains<N> z2_10_0 = MulChains(SquareChains(z2_5_0, 5), z2_5_0);       // 2^10 - 1
  Chains<N> z2_20_0 = MulChains(SquareChains(z2_10_0, 10), z2_10_0);    // 2^20 - 1
  Chains<N> z2_40_0 = MulChains(SquareChains(z2_20_0, 20), z2_20_0);    // 2^40 - 1
  Chains<N> z2_50_0 = MulChains(SquareChains(z2_40_0, 10), z2_10_0);    // 2^50 - 1
  Chains<N> z2_100_0 = MulChains(SquareChains(z2_50_0, 50), z2_50_0);   // 2^100 - 1
  Chains<N> z2_200_0 = MulChains(SquareChains(z2_100_0, 100), z2_100_0);  // 2^200 - 1
  return MulChains(SquareChains(z2_200_0, 50), z2_50_0);                // 2^250 - 1
}

// a^((p-5)/8) = a^(2^252 - 3) for N chains: 252 squarings + 11
// multiplications.
template <size_t N>
void PowP58Chains(const Fe25519* in, Fe25519* out) {
  Chains<N> a;
  std::copy(in, in + N, a.begin());
  Chains<N> z11;
  const Chains<N> r = MulChains(SquareChains(Pow2250Minus1(a, &z11), 2), a);
  std::copy(r.begin(), r.end(), out);
}

#if defined(__x86_64__)

// ---- AVX-512 IFMA: eight field elements per vector ---------------------------
//
// Lane j of l[k] is limb k of element j, in the same radix 2^51 as Fe25519.
// vpmadd52luq / vpmadd52huq multiply the low 52 bits of two limbs and add
// the low or the high 52 bits of the 104-bit product to an accumulator. A
// product a_i b_j sits at weight 2^(51 (i + j)); its high half, at 2^52
// above that, is twice a unit of column i + j + 1, so the high halves are
// summed per column and doubled once. Columns 5..9 fold into 0..4 by
// 2^255 = 19, and one carry pass, its five carries read at once as in
// Fe25519::CarryReduce, brings the limbs back under the loose bound.
//
// Bounds. Inputs are below kLooseLimb = 2^51 + 2^14 < 2^52, so the unit
// reads whole limbs and each product is below 2^102.01: a low half is
// < 2^52 and a high half < 2^50.01. A column takes at most five of each, so
// column k is below 5 * 2^52 + 10 * 2^50.01 < 2^55, and folded column
// t_k = col_k + 19 col_(k+5) < 20 * 2^55 < 2^60. Each carry is then below
// 2^9, the carry out of limb 4 below 2^6 (column 9 holds one high half), so
// limbs 1-4 end below 2^51 + 2^9 and limb 0 below 2^51 + 19 * 2^6: within
// kLooseLimb again, and every chain step may feed the next.
//
// Every product term is its own template instance, expanded by a fold over
// an index sequence, so the multiplications are straight-line code at the
// default -O2 too, where GCC 12 would leave a 5x5 product loop rolled.

#define VDP_IFMA_TARGET "avx512f,avx512ifma"

// Eight 64-bit lanes. Adds, shifts and masks use the compiler's vector
// operators (GCC 12's shift intrinsics trip -Wmaybe-uninitialized on their
// own undefined-vector argument); only the multiply-adds are intrinsics.
typedef uint64_t Vec __attribute__((vector_size(64)));

struct Fe8 {
  Vec l[5];
};

// Low and high halves summed per column: lo[c] holds low halves at column c,
// hi[c] the high halves of column c - 1's products.
struct Cols {
  Vec lo[10] = {};
  Vec hi[10] = {};
};

__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline void MulAdd(Vec& lo, Vec& hi,
                                                                          Vec a, Vec b) {
  lo = reinterpret_cast<Vec>(_mm512_madd52lo_epu64(reinterpret_cast<__m512i>(lo),
                                                   reinterpret_cast<__m512i>(a),
                                                   reinterpret_cast<__m512i>(b)));
  hi = reinterpret_cast<Vec>(_mm512_madd52hi_epu64(reinterpret_cast<__m512i>(hi),
                                                   reinterpret_cast<__m512i>(a),
                                                   reinterpret_cast<__m512i>(b)));
}

// Term K = 5 i + j of a * b: its low half into column i + j, its high half
// into column i + j + 1.
template <size_t K>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline void MulTerm(const Fe8& a,
                                                                           const Fe8& b,
                                                                           Cols& c) {
  constexpr size_t i = K / 5, j = K % 5;
  MulAdd(c.lo[i + j], c.hi[i + j + 1], a.l[i], b.l[j]);
}

// Term K = 5 i + j of a * a if i < j (kDiag false) or i == j (kDiag true).
template <size_t K, bool kDiag>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline void SquareTerm(const Fe8& a,
                                                                              Cols& c) {
  constexpr size_t i = K / 5, j = K % 5;
  if constexpr (kDiag ? i == j : i < j) {
    MulAdd(c.lo[i + j], c.hi[i + j + 1], a.l[i], a.l[j]);
  }
}

template <size_t C>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline void DoubleCol(Cols& c) {
  c.lo[C] <<= 1;
  c.hi[C] <<= 1;
}

// Column K + 5 folded onto column K: t_K = col_K + 19 col_(K+5), where
// col_c = lo[c] + 2 hi[c].
template <size_t K>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Vec FoldCol(const Cols& c) {
  const Vec high = c.lo[K + 5] + (c.hi[K + 5] << 1);
  return c.lo[K] + (c.hi[K] << 1) + high + (high << 1) + (high << 4);
}

// Limb K after the carry pass over the folded columns t: its low 51 bits
// plus the carry out of limb K - 1 (19 times the carry out of limb 4 for
// limb 0).
template <size_t K>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Vec CarriedLimb(
    const Vec (&t)[5]) {
  const Vec low = t[K] & ((uint64_t{1} << 51) - 1);
  if constexpr (K == 0) {
    const Vec c4 = t[4] >> 51;
    return low + c4 + (c4 << 1) + (c4 << 4);
  } else {
    return low + (t[K - 1] >> 51);
  }
}

template <size_t... K>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Fe8 Reduce(
    const Cols& c, std::index_sequence<K...>) {
  const Vec t[5] = {FoldCol<K>(c)...};
  return Fe8{{CarriedLimb<K>(t)...}};
}

template <size_t... K>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Fe8 Mul8(
    const Fe8& a, const Fe8& b, std::index_sequence<K...>) {
  Cols c;
  (MulTerm<K>(a, b, c), ...);
  return Reduce(c, std::make_index_sequence<5>{});
}

__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Fe8 Mul8(const Fe8& a,
                                                                       const Fe8& b) {
  return Mul8(a, b, std::make_index_sequence<25>{});
}

// 15 products instead of 25: the off-diagonal ones are summed, the sums
// doubled, and the diagonal ones added on top.
template <size_t... K, size_t... C>
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Fe8 Square8(
    const Fe8& a, std::index_sequence<K...>, std::index_sequence<C...>) {
  Cols c;
  (SquareTerm<K, false>(a, c), ...);
  (DoubleCol<C>(c), ...);
  (SquareTerm<K, true>(a, c), ...);
  return Reduce(c, std::make_index_sequence<5>{});
}

// k consecutive squarings.
__attribute__((target(VDP_IFMA_TARGET), always_inline)) inline Fe8 Square8(Fe8 a, int k) {
  for (int i = 0; i < k; ++i) {
    a = Square8(a, std::make_index_sequence<25>{}, std::make_index_sequence<10>{});
  }
  return a;
}

#endif  // __x86_64__

}  // namespace

const BigInt<4>& Fe25519::P() {
  static const BigInt<4> p = [] {
    BigInt<4> v;
    v.limb[0] = ~uint64_t{0} - 18;  // 2^64 - 19
    v.limb[1] = ~uint64_t{0};
    v.limb[2] = ~uint64_t{0};
    v.limb[3] = ~uint64_t{0} >> 1;  // 2^63 - 1
    return v;
  }();
  return p;
}

Fe25519 Fe25519::Pow(const Fe25519& a, const BigInt<4>& e) {
  Fe25519 acc = One();
  for (size_t i = e.BitLength(); i-- > 0;) {
    acc = Square(acc);
    if (e.Bit(i)) {
      acc = Mul(acc, a);
    }
  }
  return acc;
}

Fe25519 Fe25519::Invert() const {
  // a^(p-2) via the standard curve25519 addition chain: 254 squarings and 11
  // multiplications, versus ~250 squarings + ~250 multiplications for the
  // generic square-and-multiply Pow. Zero maps to zero (0^(p-2) = 0), which
  // coordinate normalization relies on.
  Chains<1> z11;
  Chains<1> z2_250_0 = Pow2250Minus1<1>({*this}, &z11);
  return Mul(SquareChains(z2_250_0, 5)[0], z11[0]);  // 2^255 - 21 = p - 2
}

Fe25519 Fe25519::PowP58() const {
  Fe25519 r;
  PowP58Chains<1>(this, &r);
  return r;
}

void Fe25519::PowP58Batch(const Fe25519* in, Fe25519* out, size_t n) {
#if defined(__x86_64__)
  static const bool ifma = fe25519_internal::HasIfma();
  if (ifma) {
    // An eight-lane vector costs about one scalar chain (4.7 us each on a
    // 4-vCPU Xeon host; two interleaved portable chains take 5.7 us), so
    // only a lone tail lane runs on the portable kernel.
    constexpr size_t kMinVectorLanes = 2;
    const size_t tail = n % 8 < kMinVectorLanes ? n % 8 : 0;
    if (n > tail) {
      fe25519_internal::PowP58Ifma(in, out, n - tail);
    }
    fe25519_internal::PowP58Portable(in + (n - tail), out + (n - tail), tail);
    return;
  }
#endif
  fe25519_internal::PowP58Portable(in, out, n);
}

const Fe25519& Fe25519::SqrtM1() {
  static const Fe25519 sqrt_m1 = [] {
    // 2^((p-1)/4) is a square root of -1 for p = 5 mod 8.
    BigInt<4> e = P();
    BigInt<4>::SubInto(e, e, BigInt<4>::One());
    e.ShiftRight1();
    e.ShiftRight1();
    return Pow(FromU64(2), e);
  }();
  return sqrt_m1;
}

std::optional<Fe25519> Fe25519::Sqrt() const { return SqrtGivenPow(PowP58()); }

std::optional<Fe25519> Fe25519::SqrtGivenPow(const Fe25519& pow) const {
  // p = 5 mod 8: candidate = a^((p+3)/8) = a * a^((p-5)/8); its square is
  // a * a^((p-1)/4), i.e. +-a for residues (fix up -a with sqrt(-1)).
  Fe25519 x = Mul(*this, pow);
  Fe25519 xx = Square(x);
  if (xx == *this) {
    return x;
  }
  if (xx == Neg(*this)) {
    return Mul(x, SqrtM1());
  }
  return std::nullopt;
}

std::optional<Fe25519> Fe25519::SqrtRatio(const Fe25519& u, const Fe25519& v) {
  Fe25519 uv3;
  const Fe25519 radicand = SqrtRatioRadicand(u, v, &uv3);
  return SqrtRatioGivenPow(u, v, uv3, radicand.PowP58());
}

Fe25519 Fe25519::SqrtRatioRadicand(const Fe25519& u, const Fe25519& v, Fe25519* uv3) {
  Fe25519 v3 = Mul(Square(v), v);
  Fe25519 v7 = Mul(Square(v3), v);
  *uv3 = Mul(u, v3);
  return Mul(u, v7);
}

std::optional<Fe25519> Fe25519::SqrtRatioGivenPow(const Fe25519& u, const Fe25519& v,
                                                  const Fe25519& uv3, const Fe25519& pow) {
  Fe25519 x = Mul(uv3, pow);
  Fe25519 vxx = Mul(v, Square(x));
  if (vxx == u) {
    return x;
  }
  if (vxx == Neg(u)) {
    return Mul(x, SqrtM1());
  }
  return std::nullopt;
}

bool Fe25519::IsSquare() const { return IsSquareGivenPow(PowP58()); }

bool Fe25519::IsSquareGivenPow(const Fe25519& pow) const {
  // a^((p-1)/2) = (a^((p-5)/8))^4 * a^2 is 0, 1 or -1.
  Fe25519 euler = Mul(Square(Square(pow)), Square(*this));
  return !Add(euler, One()).IsZero();
}

bool Fe25519::IsZero() const {
  auto bytes = ToBytes();
  uint8_t acc = 0;
  for (uint8_t b : bytes) {
    acc |= b;
  }
  return acc == 0;
}

bool Fe25519::IsNegative() const { return (ToBytes()[0] & 1) != 0; }

bool operator==(const Fe25519& a, const Fe25519& b) { return a.ToBytes() == b.ToBytes(); }

std::array<uint8_t, Fe25519::kEncodedSize> Fe25519::ToBytes() const {
  // One serial carry pass. The carry out of limb 4 is < 2^13, so it leaves
  // limbs 1-4 < 2^51 and limb 0 < 2^51 + 19 * 2^13: the value is below
  // 2^255 + 19 * 2^13 < 2p.
  Fe25519 t = *this;
  uint64_t c;
  for (int i = 0; i < 4; ++i) {
    c = t.v_[i] >> 51;
    t.v_[i] &= kMask51;
    t.v_[i + 1] += c;
  }
  c = t.v_[4] >> 51;
  t.v_[4] &= kMask51;
  t.v_[0] += 19 * c;
  // The chain carries value + 19 through the limbs, so q is exactly
  // floor((value + 19) / 2^255) whatever limb 0's excess; as value < 2p,
  // q = 1 iff value >= p.
  uint64_t q = (t.v_[0] + 19) >> 51;
  q = (t.v_[1] + q) >> 51;
  q = (t.v_[2] + q) >> 51;
  q = (t.v_[3] + q) >> 51;
  q = (t.v_[4] + q) >> 51;
  // value mod p = value + 19q, truncated to 255 bits; this serial carry also
  // absorbs a limb 0 above 2^51.
  t.v_[0] += 19 * q;
  c = t.v_[0] >> 51;
  t.v_[0] &= kMask51;
  t.v_[1] += c;
  c = t.v_[1] >> 51;
  t.v_[1] &= kMask51;
  t.v_[2] += c;
  c = t.v_[2] >> 51;
  t.v_[2] &= kMask51;
  t.v_[3] += c;
  c = t.v_[3] >> 51;
  t.v_[3] &= kMask51;
  t.v_[4] += c;
  t.v_[4] &= kMask51;  // drop bit 255

  std::array<uint8_t, kEncodedSize> out{};
  uint64_t words[4];
  words[0] = t.v_[0] | (t.v_[1] << 51);
  words[1] = (t.v_[1] >> 13) | (t.v_[2] << 38);
  words[2] = (t.v_[2] >> 26) | (t.v_[3] << 25);
  words[3] = (t.v_[3] >> 39) | (t.v_[4] << 12);
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 8; ++i) {
      out[8 * w + i] = static_cast<uint8_t>(words[w] >> (8 * i));
    }
  }
  return out;
}

std::optional<Fe25519> Fe25519::FromBytes(BytesView bytes) {
  if (bytes.size() != kEncodedSize || (bytes[31] & 0x80) != 0) {
    return std::nullopt;
  }
  Fe25519 r;
  r.v_[0] = LoadLe64(bytes.data()) & kMask51;
  r.v_[1] = (LoadLe64(bytes.data() + 6) >> 3) & kMask51;
  r.v_[2] = (LoadLe64(bytes.data() + 12) >> 6) & kMask51;
  r.v_[3] = (LoadLe64(bytes.data() + 19) >> 1) & kMask51;
  r.v_[4] = (LoadLe64(bytes.data() + 24) >> 12) & kMask51;
  // Reject non-canonical encodings (value >= p).
  auto canonical = r.ToBytes();
  if (!std::equal(canonical.begin(), canonical.end(), bytes.begin())) {
    return std::nullopt;
  }
  return r;
}

BigInt<4> Fe25519::ToBigInt() const {
  auto bytes = ToBytes();
  BigInt<4> v;
  for (size_t i = 0; i < 32; ++i) {
    v.limb[i / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  return v;
}

Fe25519 Fe25519::FromBigInt(const BigInt<4>& value) {
  Bytes le(32);
  for (size_t i = 0; i < 32; ++i) {
    le[i] = static_cast<uint8_t>(value.limb[i / 8] >> (8 * (i % 8)));
  }
  auto fe = FromBytes(le);
  return fe.value_or(Fe25519());
}

namespace fe25519_internal {

void PowP58Portable(const Fe25519* in, Fe25519* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    PowP58Chains<4>(in + i, out + i);
  }
  switch (n - i) {
    case 3:
      PowP58Chains<3>(in + i, out + i);
      break;
    case 2:
      PowP58Chains<2>(in + i, out + i);
      break;
    case 1:
      PowP58Chains<1>(in + i, out + i);
      break;
    default:
      break;
  }
}

const char* MissingIfmaFeature() {
#if defined(__x86_64__)
  // CPUID leaf 1: ECX bit 27 is OSXSAVE (XGETBV is usable). Leaf 7 subleaf
  // 0: EBX bit 16 is AVX-512F, bit 21 AVX-512 IFMA. XCR0 bits 1, 2, 5, 6
  // and 7 say the OS saves the SSE, AVX, opmask and both ZMM halves. The
  // masks are spelled out so that GCC's and Clang's <cpuid.h> need not
  // agree on their names.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & (1u << 27)) == 0) {
    return "osxsave";
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 || (ebx & (1u << 16)) == 0) {
    return "avx512f";
  }
  if ((ebx & (1u << 21)) == 0) {
    return "avx512ifma";
  }
  uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr uint32_t kZmmState = 0xe6;
  return (xcr0_lo & kZmmState) == kZmmState ? nullptr : "zmm-state";
#else
  return "x86-64";
#endif
}

#if defined(__x86_64__)

__attribute__((target(VDP_IFMA_TARGET))) void PowP58Ifma(const Fe25519* in, Fe25519* out,
                                                        size_t n) {
  for (size_t base = 0; base < n; base += 8) {
    const size_t lanes = std::min<size_t>(8, n - base);
    // Transpose into limb-major order; a short tail repeats its first lane.
    alignas(64) uint64_t buf[5][8];
    for (size_t j = 0; j < 8; ++j) {
      const std::array<uint64_t, 5> limbs = in[base + (j < lanes ? j : 0)].Limbs();
      for (size_t k = 0; k < 5; ++k) {
        buf[k][j] = limbs[k];
      }
    }
    Fe8 a;
    std::memcpy(a.l, buf, sizeof(buf));

    // The chain of Pow2250Minus1 and PowP58, on eight lanes.
    const Fe8 z2 = Square8(a, 1);                               // 2
    const Fe8 z9 = Mul8(Square8(z2, 2), a);                     // 9
    const Fe8 z11 = Mul8(z9, z2);                               // 11
    const Fe8 z2_5_0 = Mul8(Square8(z11, 1), z9);               // 2^5 - 1
    const Fe8 z2_10_0 = Mul8(Square8(z2_5_0, 5), z2_5_0);       // 2^10 - 1
    const Fe8 z2_20_0 = Mul8(Square8(z2_10_0, 10), z2_10_0);    // 2^20 - 1
    const Fe8 z2_40_0 = Mul8(Square8(z2_20_0, 20), z2_20_0);    // 2^40 - 1
    const Fe8 z2_50_0 = Mul8(Square8(z2_40_0, 10), z2_10_0);    // 2^50 - 1
    const Fe8 z2_100_0 = Mul8(Square8(z2_50_0, 50), z2_50_0);   // 2^100 - 1
    const Fe8 z2_200_0 = Mul8(Square8(z2_100_0, 100), z2_100_0);  // 2^200 - 1
    const Fe8 z2_250_0 = Mul8(Square8(z2_200_0, 50), z2_50_0);  // 2^250 - 1
    const Fe8 r = Mul8(Square8(z2_250_0, 2), a);                // 2^252 - 3

    std::memcpy(buf, r.l, sizeof(buf));
    for (size_t j = 0; j < lanes; ++j) {
      out[base + j] = Fe25519::FromLimbs({buf[0][j], buf[1][j], buf[2][j], buf[3][j], buf[4][j]});
    }
  }
}

#endif  // __x86_64__

const char* BatchKernelName() { return HasIfma() ? "ifma8" : "portable4"; }

}  // namespace fe25519_internal

}  // namespace vdp
