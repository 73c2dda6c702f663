#include "src/group/ed25519_field.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/common/rng.h"
#include "src/math/montgomery.h"
#include "src/math/primality.h"

namespace vdp {
namespace {

// Reference implementation: BigInt arithmetic mod p.
const MontgomeryCtx<4>& RefCtx() {
  static const MontgomeryCtx<4> ctx(Fe25519::P());
  return ctx;
}

Fe25519 RandomFe(SecureRng& rng) {
  return Fe25519::FromBigInt(RandomBelow(Fe25519::P(), rng));
}

TEST(Fe25519Test, PIsCorrect) {
  // p = 2^255 - 19
  BigInt<5> two255;
  two255.SetBit(255);
  BigInt<5> p5 = Fe25519::P().Resize<5>();
  BigInt<5> diff;
  BigInt<5>::SubInto(diff, two255, p5);
  EXPECT_EQ(diff, BigInt<5>::FromU64(19));
}

TEST(Fe25519Test, ZeroOneBasics) {
  EXPECT_TRUE(Fe25519::Zero().IsZero());
  EXPECT_FALSE(Fe25519::One().IsZero());
  EXPECT_EQ(Fe25519::One().ToBigInt(), BigInt<4>::One());
}

TEST(Fe25519Test, AddMatchesReference) {
  SecureRng rng("fe-add");
  for (int i = 0; i < 200; ++i) {
    BigInt<4> a = RandomBelow(Fe25519::P(), rng);
    BigInt<4> b = RandomBelow(Fe25519::P(), rng);
    Fe25519 r = Fe25519::Add(Fe25519::FromBigInt(a), Fe25519::FromBigInt(b));
    EXPECT_EQ(r.ToBigInt(), AddMod(a, b, Fe25519::P()));
  }
}

TEST(Fe25519Test, SubMatchesReference) {
  SecureRng rng("fe-sub");
  for (int i = 0; i < 200; ++i) {
    BigInt<4> a = RandomBelow(Fe25519::P(), rng);
    BigInt<4> b = RandomBelow(Fe25519::P(), rng);
    Fe25519 r = Fe25519::Sub(Fe25519::FromBigInt(a), Fe25519::FromBigInt(b));
    EXPECT_EQ(r.ToBigInt(), SubMod(a, b, Fe25519::P()));
  }
}

TEST(Fe25519Test, MulMatchesReference) {
  SecureRng rng("fe-mul");
  for (int i = 0; i < 200; ++i) {
    BigInt<4> a = RandomBelow(Fe25519::P(), rng);
    BigInt<4> b = RandomBelow(Fe25519::P(), rng);
    Fe25519 r = Fe25519::Mul(Fe25519::FromBigInt(a), Fe25519::FromBigInt(b));
    EXPECT_EQ(r.ToBigInt(), RefCtx().MulMod(a, b));
  }
}

TEST(Fe25519Test, MulEdgeValues) {
  // Values near p stress the final reduction.
  BigInt<4> p_minus_1 = Fe25519::P();
  BigInt<4>::SubInto(p_minus_1, p_minus_1, BigInt<4>::One());
  Fe25519 m1 = Fe25519::FromBigInt(p_minus_1);
  // (-1) * (-1) = 1
  EXPECT_EQ(Fe25519::Mul(m1, m1).ToBigInt(), BigInt<4>::One());
  // (-1) + 1 = 0
  EXPECT_TRUE(Fe25519::Add(m1, Fe25519::One()).IsZero());
}

TEST(Fe25519Test, NegIsAdditiveInverse) {
  SecureRng rng("fe-neg");
  for (int i = 0; i < 50; ++i) {
    Fe25519 a = RandomFe(rng);
    EXPECT_TRUE(Fe25519::Add(a, Fe25519::Neg(a)).IsZero());
  }
}

TEST(Fe25519Test, InvertIsMultiplicativeInverse) {
  SecureRng rng("fe-inv");
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = RandomFe(rng);
    if (a.IsZero()) {
      continue;
    }
    EXPECT_EQ(Fe25519::Mul(a, a.Invert()).ToBigInt(), BigInt<4>::One());
  }
}

TEST(Fe25519Test, SqrtOfSquareRecoverValue) {
  SecureRng rng("fe-sqrt");
  for (int i = 0; i < 30; ++i) {
    Fe25519 a = RandomFe(rng);
    Fe25519 aa = Fe25519::Square(a);
    auto root = aa.Sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == Fe25519::Neg(a));
  }
}

TEST(Fe25519Test, SqrtOfNonResidueFails) {
  // Count failures over random values: about half of nonzero elements are
  // non-residues, so we must see at least one failure in 40 draws.
  SecureRng rng("fe-nonres");
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    if (!RandomFe(rng).Sqrt().has_value()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
}

TEST(Fe25519Test, SqrtMinusOneExists) {
  // p = 1 mod 4, so -1 is a quadratic residue.
  auto root = Fe25519::Neg(Fe25519::One()).Sqrt();
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(Fe25519::Square(*root), Fe25519::Neg(Fe25519::One()));
}

TEST(Fe25519Test, EncodingRoundTrip) {
  SecureRng rng("fe-bytes");
  for (int i = 0; i < 100; ++i) {
    Fe25519 a = RandomFe(rng);
    auto bytes = a.ToBytes();
    auto back = Fe25519::FromBytes(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
}

TEST(Fe25519Test, FromBytesRejectsNonCanonical) {
  // p itself encodes to 32 bytes with bit 255 clear but is not canonical.
  Bytes p_le(32);
  for (size_t i = 0; i < 32; ++i) {
    p_le[i] = static_cast<uint8_t>(Fe25519::P().limb[i / 8] >> (8 * (i % 8)));
  }
  EXPECT_FALSE(Fe25519::FromBytes(p_le).has_value());
  // All-ones with top bit set is rejected for the sign bit.
  Bytes all_ones(32, 0xff);
  EXPECT_FALSE(Fe25519::FromBytes(all_ones).has_value());
  // Wrong length.
  EXPECT_FALSE(Fe25519::FromBytes(Bytes(31, 0)).has_value());
}

TEST(Fe25519Test, IsNegativeIsParityOfCanonicalForm) {
  EXPECT_FALSE(Fe25519::Zero().IsNegative());
  EXPECT_TRUE(Fe25519::One().IsNegative());
  EXPECT_FALSE(Fe25519::FromU64(2).IsNegative());
  // -1 = p - 1 which is even.
  EXPECT_FALSE(Fe25519::Neg(Fe25519::One()).IsNegative());
}

TEST(Fe25519Test, PowMatchesMontgomeryReference) {
  SecureRng rng("fe-pow");
  for (int i = 0; i < 10; ++i) {
    BigInt<4> a = RandomBelow(Fe25519::P(), rng);
    BigInt<4> e = RandomBelow(Fe25519::P(), rng);
    Fe25519 r = Fe25519::Pow(Fe25519::FromBigInt(a), e);
    EXPECT_EQ(r.ToBigInt(), RefCtx().ExpMod(a, e));
  }
}

TEST(Fe25519Test, FromU64LargeValue) {
  uint64_t big = ~uint64_t{0};
  EXPECT_EQ(Fe25519::FromU64(big).ToBigInt(), BigInt<4>::FromU64(big));
}

// The value with the given radix-2^51 limbs (each < 2^51).
BigInt<4> FromRadix51(const std::array<uint64_t, 5>& limbs) {
  BigInt<4> v;
  for (size_t i = 0; i < 5; ++i) {
    for (size_t b = 0; b < 51; ++b) {
      if ((limbs[i] >> b) & 1) {
        v.SetBit(51 * i + b);
      }
    }
  }
  return v;
}

// Add reduces weakly, so ToBytes can receive a limb 4 of exactly 2^51 next
// to a limb 0 just below 2^51 (limb 3 carries into a full limb 4). The sum
// is 2^255 + 2^51 - 1 - k, whose reduction folds 19 into limb 0 and, for
// k < 19, carries it across limb 0's top.
TEST(Fe25519Test, ToBytesReducesCarriedTopLimb) {
  const uint64_t m = (uint64_t{1} << 51) - 1;
  const BigInt<4> b = FromRadix51({0, 0, 0, 1, 0});
  for (uint64_t k = 0; k < 40; ++k) {
    const BigInt<4> a = FromRadix51({m - k, 0, 0, m, m});
    const BigInt<4> sum = AddMod(a, b, Fe25519::P());
    const Fe25519 r = Fe25519::Add(Fe25519::FromBigInt(a), Fe25519::FromBigInt(b));
    EXPECT_EQ(r.ToBigInt(), sum) << "k=" << k;
    EXPECT_EQ(r.ToBytes(), Fe25519::FromBigInt(sum).ToBytes()) << "k=" << k;
  }
}

// One step of a chain: applies `op` to the kernel values and to their BigInt
// references alike.
enum class FeOp { kAdd, kSub, kNeg, kMul, kSquare };

void Apply(FeOp op, const Fe25519& a, const Fe25519& b, const BigInt<4>& ra,
           const BigInt<4>& rb, Fe25519* out, BigInt<4>* ref) {
  const BigInt<4>& p = Fe25519::P();
  switch (op) {
    case FeOp::kAdd:
      *out = Fe25519::Add(a, b);
      *ref = AddMod(ra, rb, p);
      break;
    case FeOp::kSub:
      *out = Fe25519::Sub(a, b);
      *ref = SubMod(ra, rb, p);
      break;
    case FeOp::kNeg:
      *out = Fe25519::Neg(a);
      *ref = SubMod(BigInt<4>::Zero(), ra, p);
      break;
    case FeOp::kMul:
      *out = Fe25519::Mul(a, b);
      *ref = RefCtx().MulMod(ra, rb);
      break;
    case FeOp::kSquare:
      *out = Fe25519::Square(a);
      *ref = RefCtx().MulMod(ra, ra);
      break;
  }
}

// Long random chains whose intermediates are never re-canonicalised: every
// result goes back into the pool as the kernels left it, loose limbs and
// all, and is checked against BigInt arithmetic mod p at every step. The
// pool starts at the edges (0, 1, p - 1, p - 2, 2^64 - 1, 2^254) and the
// runs below push limbs toward their loose maxima: repeated Sub(0, x),
// doubling, and sums of negations.
TEST(Fe25519Test, LooseChainsMatchReference) {
  SecureRng rng("fe-chain");
  const BigInt<4>& p = Fe25519::P();
  BigInt<4> p_minus_1;
  BigInt<4>::SubInto(p_minus_1, p, BigInt<4>::One());
  BigInt<4> p_minus_2;
  BigInt<4>::SubInto(p_minus_2, p_minus_1, BigInt<4>::One());
  BigInt<4> top;  // 2^254: the top limb's highest bit alone
  top.SetBit(254);
  std::vector<BigInt<4>> ref = {BigInt<4>::Zero(), BigInt<4>::One(), p_minus_1, p_minus_2,
                                BigInt<4>::FromU64(~uint64_t{0}), top};
  while (ref.size() < 12) {
    ref.push_back(RandomBelow(p, rng));
  }
  std::vector<Fe25519> fe;
  for (const auto& v : ref) {
    fe.push_back(Fe25519::FromBigInt(v));
  }

  constexpr FeOp kOps[] = {FeOp::kAdd, FeOp::kSub, FeOp::kNeg, FeOp::kMul, FeOp::kSquare};
  for (int step = 0; step < 30000; ++step) {
    const FeOp op = kOps[rng.UniformBelow(5)];
    const size_t i = rng.UniformBelow(fe.size());
    const size_t j = rng.UniformBelow(fe.size());
    const size_t k = rng.UniformBelow(fe.size());
    Apply(op, fe[i], fe[j], ref[i], ref[j], &fe[k], &ref[k]);
    ASSERT_EQ(fe[k].ToBigInt(), ref[k]) << "step " << step << " op " << static_cast<int>(op);
  }

  // Worst-case runs from each edge value: Sub(0, x) again and again, then
  // doubling, then the sum of two negations, then a product of the result
  // with itself; none of them ever re-canonicalises.
  for (size_t start = 0; start < 6; ++start) {
    Fe25519 x = fe[start];
    BigInt<4> rx = ref[start];
    for (int step = 0; step < 200; ++step) {
      const FeOp op = step % 50 == 49 ? FeOp::kSquare : FeOp::kNeg;
      Apply(op, x, x, rx, rx, &x, &rx);
      ASSERT_EQ(x.ToBigInt(), rx) << "neg run, start " << start << " step " << step;
    }
    for (int step = 0; step < 300; ++step) {
      Apply(FeOp::kAdd, x, x, rx, rx, &x, &rx);
      ASSERT_EQ(x.ToBigInt(), rx) << "doubling run, start " << start << " step " << step;
    }
    for (int step = 0; step < 200; ++step) {
      Fe25519 nx;
      BigInt<4> rnx;
      Apply(FeOp::kNeg, x, x, rx, rx, &nx, &rnx);
      Apply(FeOp::kAdd, nx, nx, rnx, rnx, &x, &rx);
      Apply(FeOp::kSub, x, nx, rx, rnx, &x, &rx);
      Apply(FeOp::kMul, x, nx, rx, rnx, &x, &rx);
      ASSERT_EQ(x.ToBigInt(), rx) << "negation sums, start " << start << " step " << step;
    }
  }
}

}  // namespace
}  // namespace vdp
