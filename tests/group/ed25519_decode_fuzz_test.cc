// Decode fuzzing for the ed25519 backend: arbitrary 32-byte strings must
// either fail decoding cleanly or produce a point whose re-encoding is
// byte-identical (canonical), and every deliberately non-canonical encoding
// of a valid point must be rejected. Also pins EncodeBatch to the scalar
// Encode path byte-for-byte, and differentially tests the strict decoder's
// accept set against an independent [l]P oracle over every torsion coset.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/group/ed25519.h"

namespace vdp {
namespace {

using G = Ed25519Group;

// ---- Independent decode oracle ---------------------------------------------
// Accepts exactly the encodings the strict decoder must accept, computed the
// slow, obvious way from public Fe25519 operations only: decompression through
// Invert and a square-and-multiply a^((p+3)/8), and membership as [l]P = O by
// double-and-add with the Edwards addition law
//   x3 = (x1 y2 + y1 x2) / (1 + d x1 x2 y1 y2),
//   y3 = (y1 y2 + x1 x2) / (1 - d x1 x2 y1 y2)
// evaluated with its denominators cleared (x = X/Z, y = Y/Z), so that each
// step costs multiplications rather than two inversions. The law is complete
// on edwards25519, so doubling is the same formula.
struct OraclePoint {
  Fe25519 x;
  Fe25519 y;
  Fe25519 z;
};

OraclePoint OracleAdd(const OraclePoint& p, const OraclePoint& q) {
  Fe25519 zz = Fe25519::Mul(p.z, q.z);
  Fe25519 zz2 = Fe25519::Square(zz);
  Fe25519 xx = Fe25519::Mul(p.x, q.x);
  Fe25519 yy = Fe25519::Mul(p.y, q.y);
  Fe25519 dxy = Fe25519::Mul(G::D(), Fe25519::Mul(xx, yy));
  Fe25519 cross = Fe25519::Add(Fe25519::Mul(p.x, q.y), Fe25519::Mul(p.y, q.x));
  Fe25519 f = Fe25519::Sub(zz2, dxy);  // z^4 (1 - d x1 x2 y1 y2)
  Fe25519 g = Fe25519::Add(zz2, dxy);  // z^4 (1 + d x1 x2 y1 y2)
  return OraclePoint{Fe25519::Mul(Fe25519::Mul(zz, cross), f),
                     Fe25519::Mul(Fe25519::Mul(zz, Fe25519::Add(yy, xx)), g),
                     Fe25519::Mul(f, g)};
}

OraclePoint OracleMul(const OraclePoint& p, const BigInt<4>& e) {
  OraclePoint acc{Fe25519::Zero(), Fe25519::One(), Fe25519::One()};
  for (size_t i = e.BitLength(); i-- > 0;) {
    acc = OracleAdd(acc, acc);
    if (e.Bit(i)) {
      acc = OracleAdd(acc, p);
    }
  }
  return acc;
}

bool OracleIsIdentity(const OraclePoint& p) { return p.x.IsZero() && p.y == p.z; }

// The curve point an encoding names (canonical y, x with the given sign), or
// nullopt; says nothing about the subgroup.
std::optional<OraclePoint> OracleDecompress(const Bytes& enc) {
  BigInt<4> y_int;
  for (size_t i = 0; i < 32; ++i) {
    uint8_t b = i == 31 ? (enc[i] & 0x7f) : enc[i];
    y_int.limb[i / 8] |= static_cast<uint64_t>(b) << (8 * (i % 8));
  }
  if (y_int >= Fe25519::P()) {
    return std::nullopt;
  }
  const bool sign = (enc[31] & 0x80) != 0;
  Fe25519 y = Fe25519::FromBigInt(y_int);
  Fe25519 yy = Fe25519::Square(y);
  Fe25519 xx = Fe25519::Mul(Fe25519::Sub(yy, Fe25519::One()),
                            Fe25519::Add(Fe25519::Mul(G::D(), yy), Fe25519::One()).Invert());
  BigInt<4> root_exp = Fe25519::P();  // (p + 3) / 8
  BigInt<4>::AddInto(root_exp, root_exp, BigInt<4>::FromU64(3));
  BigInt<4> m1_exp = Fe25519::P();  // (p - 1) / 4, so 2^m1_exp = sqrt(-1)
  BigInt<4>::SubInto(m1_exp, m1_exp, BigInt<4>::One());
  for (int i = 0; i < 3; ++i) {
    root_exp.ShiftRight1();
  }
  for (int i = 0; i < 2; ++i) {
    m1_exp.ShiftRight1();
  }
  Fe25519 x = Fe25519::Pow(xx, root_exp);
  if (!(Fe25519::Square(x) == xx)) {
    x = Fe25519::Mul(x, Fe25519::Pow(Fe25519::FromU64(2), m1_exp));
  }
  if (!(Fe25519::Square(x) == xx)) {
    return std::nullopt;  // x^2 is a non-residue: not on the curve
  }
  if (x.IsZero() && sign) {
    return std::nullopt;
  }
  if (x.IsNegative() != sign) {
    x = Fe25519::Neg(x);
  }
  return OraclePoint{x, y, Fe25519::One()};
}

bool OracleAccepts(const Bytes& enc) {
  auto p = OracleDecompress(enc);
  return p.has_value() && OracleIsIdentity(OracleMul(*p, G::ScalarTag::Order()));
}

Bytes OracleEncode(const OraclePoint& p) {
  Fe25519 zinv = p.z.Invert();
  Fe25519 x = Fe25519::Mul(p.x, zinv);
  auto bytes = Fe25519::Mul(p.y, zinv).ToBytes();
  if (x.IsNegative()) {
    bytes[31] |= 0x80;
  }
  return Bytes(bytes.begin(), bytes.end());
}

// [k]T for k = 0..7, T a point of order exactly 8: the whole torsion group
// E[8] = E(F_p)[8], found as [l]P for curve points P until [4][l]P != O.
std::vector<OraclePoint> SmallOrderPoints() {
  SecureRng rng("ed25519-torsion-search");
  for (;;) {
    Bytes raw = rng.RandomBytes(32);
    auto p = OracleDecompress(raw);
    if (!p.has_value()) {
      continue;
    }
    OraclePoint t = OracleMul(*p, G::ScalarTag::Order());
    if (OracleIsIdentity(OracleMul(t, BigInt<4>::FromU64(4)))) {
      continue;  // order divides 4; keep looking for a generator of E[8]
    }
    std::vector<OraclePoint> out = {OraclePoint{Fe25519::Zero(), Fe25519::One(),
                                                Fe25519::One()}};
    for (int k = 1; k < 8; ++k) {
      out.push_back(OracleAdd(out.back(), t));
    }
    return out;
  }
}

// Decode and the oracle agree on one encoding; returns whether it is accepted.
bool ExpectAgrees(const Bytes& enc, const std::string& what) {
  auto e = G::Decode(enc);
  const bool oracle = OracleAccepts(enc);
  EXPECT_EQ(e.has_value(), oracle) << what;
  if (e.has_value()) {
    EXPECT_EQ(G::Encode(*e), enc) << what;
  }
  return oracle;
}

TEST(Ed25519DecodeFuzzTest, RandomStringsDecodeCleanlyOrCanonically) {
  SecureRng rng("ed25519-decode-fuzz");
  size_t accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    Bytes raw = rng.RandomBytes(32);
    auto e = G::Decode(raw);
    if (!e.has_value()) {
      continue;  // clean rejection is a valid outcome
    }
    ++accepted;
    // Anything accepted must round-trip to exactly the same bytes: Decode
    // accepts only canonical encodings, so re-encoding cannot differ.
    EXPECT_EQ(G::Encode(*e), raw) << "iteration " << i;
    // ... and must genuinely be in the prime-order subgroup.
    EXPECT_TRUE(G::InSubgroup(*e)) << "iteration " << i;
  }
  // About 1/2 of y values are on the curve and 1/8 of those survive the
  // subgroup check; with 5000 tries the accept count cannot be zero unless
  // decoding is broken.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 2500u);
}

TEST(Ed25519DecodeFuzzTest, BiasedHighBytesStressCanonicalBoundary) {
  // Encodings with y close to 2^255 - 19 exercise the canonical-range check;
  // force the top bytes high so the fuzz actually lands near the modulus.
  SecureRng rng("ed25519-decode-fuzz-high");
  for (int i = 0; i < 2000; ++i) {
    Bytes raw = rng.RandomBytes(32);
    raw[31] = 0x7f | (raw[31] & 0x80);  // y >= 2^255 - 2^248 (plus sign bit)
    for (size_t b = 16; b < 31; ++b) {
      raw[b] = 0xff;
    }
    auto e = G::Decode(raw);
    if (e.has_value()) {
      EXPECT_EQ(G::Encode(*e), raw) << "iteration " << i;
    }
  }
}

TEST(Ed25519DecodeFuzzTest, NonCanonicalFieldEncodingsRejected) {
  // y' = y + p fits in 255 bits whenever y < 19; those encodings name the
  // same field element as y but are non-canonical and must be rejected with
  // either sign bit.
  for (uint64_t y = 0; y < 19; ++y) {
    BigInt<4> big = Fe25519::P();
    BigInt<4>::AddInto(big, big, BigInt<4>::FromU64(y));
    Bytes raw(32, 0);
    // little-endian serialization of the 255-bit value
    Bytes be = big.ToBytesBe();
    for (size_t i = 0; i < 32; ++i) {
      raw[i] = be[be.size() - 1 - i];
    }
    for (int sign = 0; sign < 2; ++sign) {
      Bytes attempt = raw;
      attempt[31] = static_cast<uint8_t>((attempt[31] & 0x7f) | (sign << 7));
      EXPECT_FALSE(G::Decode(attempt).has_value())
          << "y=p+" << y << " sign=" << sign;
    }
  }
}

TEST(Ed25519DecodeFuzzTest, ValidPointsSurviveDecodeEncodeLoop) {
  SecureRng rng("ed25519-roundtrip");
  auto p = G::Generator();
  for (int i = 0; i < 200; ++i) {
    Bytes enc = G::Encode(p);
    auto back = G::Decode(enc);
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_TRUE(*back == p);
    EXPECT_EQ(G::Encode(*back), enc);
    p = G::Exp(p, G::Scalar::Random(rng));
  }
}

TEST(Ed25519DecodeFuzzTest, IdentityEncodingIsCanonical) {
  Bytes enc = G::Encode(G::Identity());
  // (0, 1): y = 1, sign(x) = 0.
  Bytes expected(32, 0);
  expected[0] = 1;
  EXPECT_EQ(enc, expected);
  auto back = G::Decode(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == G::Identity());
}

TEST(Ed25519DecodeFuzzTest, EncodeBatchMatchesScalarEncode) {
  SecureRng rng("ed25519-encode-batch");
  std::vector<G::Element> es;
  es.push_back(G::Identity());
  es.push_back(G::Generator());
  for (int i = 0; i < 47; ++i) {
    es.push_back(G::ExpG(G::Scalar::Random(rng)));
  }
  std::vector<Bytes> batch = G::EncodeBatch(es);
  ASSERT_EQ(batch.size(), es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(batch[i], G::Encode(es[i])) << "i=" << i;
  }
  // Degenerate batch shapes.
  EXPECT_TRUE(G::EncodeBatch({}).empty());
  std::vector<G::Element> one = {G::Identity()};
  EXPECT_EQ(G::EncodeBatch(one)[0], G::Encode(G::Identity()));
}

TEST(Ed25519DecodeDifferentialTest, SmallOrderPointsAllRejectedButIdentity) {
  std::vector<OraclePoint> torsion = SmallOrderPoints();
  ASSERT_EQ(torsion.size(), 8u);
  for (size_t k = 0; k < torsion.size(); ++k) {
    Bytes enc = OracleEncode(torsion[k]);
    EXPECT_EQ(ExpectAgrees(enc, "[" + std::to_string(k) + "]T"), k == 0);
    // The encodings with the other sign bit: rejected (x = 0 forbids it, or
    // it names the negated torsion point, also outside the subgroup).
    enc[31] ^= 0x80;
    EXPECT_FALSE(ExpectAgrees(enc, "[" + std::to_string(k) + "]T, flipped sign"));
  }
  // Orders 1, 2, 4, 8 are all represented: x = 0 at y = +-1, y = 0 at order 4.
  EXPECT_TRUE(torsion[4].x.IsZero());
  EXPECT_TRUE(torsion[2].y.IsZero() && torsion[6].y.IsZero());
}

TEST(Ed25519DecodeDifferentialTest, EveryTorsionCosetOfSubgroupPointsRejected) {
  std::vector<OraclePoint> torsion = SmallOrderPoints();
  SecureRng rng("ed25519-torsion-cosets");
  for (int i = 0; i < 64; ++i) {
    G::Element member = i == 0 ? G::Generator() : G::ExpG(G::Scalar::Random(rng));
    auto p = OracleDecompress(G::Encode(member));
    ASSERT_TRUE(p.has_value());
    for (size_t k = 0; k < torsion.size(); ++k) {
      Bytes enc = OracleEncode(OracleAdd(*p, torsion[k]));
      EXPECT_EQ(ExpectAgrees(enc, "member " + std::to_string(i) + " + [" +
                                      std::to_string(k) + "]T"),
                k == 0);
    }
  }
}

TEST(Ed25519DecodeDifferentialTest, RandomStringsMatchOracleWithBothSigns) {
  SecureRng rng("ed25519-decode-differential");
  size_t accepted = 0;
  size_t on_curve = 0;
  constexpr int kStrings = 20000;
  for (int i = 0; i < kStrings; ++i) {
    Bytes raw = rng.RandomBytes(32);
    for (int sign = 0; sign < 2; ++sign) {
      raw[31] = static_cast<uint8_t>((raw[31] & 0x7f) | (sign << 7));
      on_curve += OracleDecompress(raw).has_value() ? 1 : 0;
      accepted += ExpectAgrees(raw, "string " + std::to_string(i) + " sign " +
                                        std::to_string(sign))
                      ? 1
                      : 0;
    }
  }
  // About half of the strings name curve points and one in eight of those is
  // in the subgroup; both counts far from the edges prove the test exercised
  // both verdicts.
  EXPECT_GT(on_curve, 2 * kStrings * 45 / 100);
  EXPECT_LT(on_curve, 2 * kStrings * 55 / 100);
  EXPECT_GT(accepted, on_curve / 10);
  EXPECT_LT(accepted, on_curve / 6);
}

}  // namespace
}  // namespace vdp
