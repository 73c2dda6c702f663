#include "src/group/ed25519_field.h"

#include <algorithm>

namespace vdp {
namespace {

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// k consecutive squarings.
inline Fe25519 SquareN(Fe25519 a, int k) {
  for (int i = 0; i < k; ++i) {
    a = Fe25519::Square(a);
  }
  return a;
}

// The shared prefix of the curve25519 addition chains: returns a^(2^250 - 1)
// and sets *z11 = a^11 (250 squarings + 10 multiplications).
Fe25519 Pow2250Minus1(const Fe25519& a, Fe25519* z11) {
  Fe25519 z2 = Fe25519::Square(a);                               // 2
  Fe25519 z9 = Fe25519::Mul(SquareN(z2, 2), a);                  // 9
  *z11 = Fe25519::Mul(z9, z2);                                   // 11
  Fe25519 z2_5_0 = Fe25519::Mul(Fe25519::Square(*z11), z9);      // 2^5 - 1
  Fe25519 z2_10_0 = Fe25519::Mul(SquareN(z2_5_0, 5), z2_5_0);    // 2^10 - 1
  Fe25519 z2_20_0 = Fe25519::Mul(SquareN(z2_10_0, 10), z2_10_0); // 2^20 - 1
  Fe25519 z2_40_0 = Fe25519::Mul(SquareN(z2_20_0, 20), z2_20_0); // 2^40 - 1
  Fe25519 z2_50_0 = Fe25519::Mul(SquareN(z2_40_0, 10), z2_10_0); // 2^50 - 1
  Fe25519 z2_100_0 = Fe25519::Mul(SquareN(z2_50_0, 50), z2_50_0);     // 2^100 - 1
  Fe25519 z2_200_0 = Fe25519::Mul(SquareN(z2_100_0, 100), z2_100_0);  // 2^200 - 1
  return Fe25519::Mul(SquareN(z2_200_0, 50), z2_50_0);                // 2^250 - 1
}

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
  Fe25519 z11;
  Fe25519 z2_250_0 = Pow2250Minus1(*this, &z11);
  return Mul(SquareN(z2_250_0, 5), z11);  // 2^255 - 21 = p - 2
}

Fe25519 Fe25519::PowP58() const {
  Fe25519 z11;
  Fe25519 z2_250_0 = Pow2250Minus1(*this, &z11);
  return Mul(SquareN(z2_250_0, 2), *this);  // 2^252 - 3 = (p - 5) / 8
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

std::optional<Fe25519> Fe25519::Sqrt() const {
  // p = 5 mod 8: candidate = a^((p+3)/8) = a * a^((p-5)/8); its square is
  // a * a^((p-1)/4), i.e. +-a for residues (fix up -a with sqrt(-1)).
  Fe25519 x = Mul(*this, PowP58());
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
  Fe25519 v3 = Mul(Square(v), v);
  Fe25519 v7 = Mul(Square(v3), v);
  Fe25519 x = Mul(Mul(u, v3), Mul(u, v7).PowP58());
  Fe25519 vxx = Mul(v, Square(x));
  if (vxx == u) {
    return x;
  }
  if (vxx == Neg(u)) {
    return Mul(x, SqrtM1());
  }
  return std::nullopt;
}

bool Fe25519::IsSquare() const {
  // a^((p-1)/2) = (a^((p-5)/8))^4 * a^2 is 0, 1 or -1.
  Fe25519 euler = Mul(SquareN(PowP58(), 2), Square(*this));
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

}  // namespace vdp
