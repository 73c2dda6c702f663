// Typed tests run against every group backend: the protocol layers rely on
// exactly these algebraic laws, so any backend that passes this suite is a
// drop-in instantiation.
#include "src/group/group.h"

#include <gtest/gtest.h>

#include "src/group/fixed_base.h"

namespace vdp {
namespace {

template <typename G>
class GroupLawTest : public ::testing::Test {};

using GroupTypes = ::testing::Types<ModP256, ModP512, Ed25519Group>;
TYPED_TEST_SUITE(GroupLawTest, GroupTypes);

TYPED_TEST(GroupLawTest, IdentityIsNeutral) {
  using G = TypeParam;
  SecureRng rng("id-" + G::Name());
  auto e = G::ExpG(G::Scalar::Random(rng));
  EXPECT_EQ(G::Mul(e, G::Identity()), e);
  EXPECT_EQ(G::Mul(G::Identity(), e), e);
}

TYPED_TEST(GroupLawTest, InverseCancels) {
  using G = TypeParam;
  SecureRng rng("inv-" + G::Name());
  auto e = G::ExpG(G::Scalar::Random(rng));
  EXPECT_EQ(G::Mul(e, G::Inverse(e)), G::Identity());
}

TYPED_TEST(GroupLawTest, MulCommutesAndAssociates) {
  using G = TypeParam;
  SecureRng rng("laws-" + G::Name());
  auto a = G::ExpG(G::Scalar::Random(rng));
  auto b = G::ExpG(G::Scalar::Random(rng));
  auto c = G::ExpG(G::Scalar::Random(rng));
  EXPECT_EQ(G::Mul(a, b), G::Mul(b, a));
  EXPECT_EQ(G::Mul(G::Mul(a, b), c), G::Mul(a, G::Mul(b, c)));
}

TYPED_TEST(GroupLawTest, ExpHomomorphism) {
  using G = TypeParam;
  SecureRng rng("hom-" + G::Name());
  auto x = G::Scalar::Random(rng);
  auto y = G::Scalar::Random(rng);
  // g^(x+y) = g^x g^y
  EXPECT_EQ(G::ExpG(x + y), G::Mul(G::ExpG(x), G::ExpG(y)));
  // (g^x)^y = g^(xy)
  EXPECT_EQ(G::Exp(G::ExpG(x), y), G::ExpG(x * y));
}

TYPED_TEST(GroupLawTest, ExpByZeroAndOne) {
  using G = TypeParam;
  SecureRng rng("zero-one-" + G::Name());
  auto e = G::ExpG(G::Scalar::Random(rng));
  EXPECT_EQ(G::Exp(e, G::Scalar::Zero()), G::Identity());
  EXPECT_EQ(G::Exp(e, G::Scalar::One()), e);
}

TYPED_TEST(GroupLawTest, ExpByNegatedScalarInverts) {
  using G = TypeParam;
  SecureRng rng("neg-" + G::Name());
  auto x = G::Scalar::Random(rng);
  EXPECT_EQ(G::ExpG(-x), G::Inverse(G::ExpG(x)));
}

TYPED_TEST(GroupLawTest, EncodeDecodeRoundTrip) {
  using G = TypeParam;
  SecureRng rng("codec-" + G::Name());
  for (int i = 0; i < 5; ++i) {
    auto e = G::ExpG(G::Scalar::Random(rng));
    auto decoded = G::Decode(G::Encode(e));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, e);
  }
}

TYPED_TEST(GroupLawTest, EncodingIsCanonical) {
  using G = TypeParam;
  SecureRng rng("canon-" + G::Name());
  auto e = G::ExpG(G::Scalar::Random(rng));
  auto decoded = G::Decode(G::Encode(e));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(G::Encode(*decoded), G::Encode(e));
}

TYPED_TEST(GroupLawTest, HashToGroupIsDeterministicAndSeparated) {
  using G = TypeParam;
  auto a = G::HashToGroup(StrView("domain-1"), StrView("msg"));
  auto b = G::HashToGroup(StrView("domain-1"), StrView("msg"));
  auto c = G::HashToGroup(StrView("domain-2"), StrView("msg"));
  auto d = G::HashToGroup(StrView("domain-1"), StrView("other"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TYPED_TEST(GroupLawTest, DivHelper) {
  using G = TypeParam;
  SecureRng rng("div-" + G::Name());
  auto a = G::ExpG(G::Scalar::Random(rng));
  auto b = G::ExpG(G::Scalar::Random(rng));
  EXPECT_EQ(G::Mul(Div<G>(a, b), b), a);
}

TYPED_TEST(GroupLawTest, FixedBaseTableMatchesExp) {
  using G = TypeParam;
  SecureRng rng("fb-" + G::Name());
  FixedBaseTable<G> table(G::Generator());
  for (int i = 0; i < 5; ++i) {
    auto x = G::Scalar::Random(rng);
    EXPECT_EQ(table.Exp(x), G::ExpG(x));
  }
  EXPECT_EQ(table.Exp(G::Scalar::Zero()), G::Identity());
  EXPECT_EQ(table.Exp(G::Scalar::One()), G::Generator());
}

TYPED_TEST(GroupLawTest, ScalarFieldLaws) {
  using G = TypeParam;
  using S = typename G::Scalar;
  SecureRng rng("sf-" + G::Name());
  auto a = S::Random(rng);
  auto b = S::Random(rng);
  auto c = S::Random(rng);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, S::Zero());
  EXPECT_EQ(a + S::Zero(), a);
  EXPECT_EQ(a * S::One(), a);
  if (!a.IsZero()) {
    EXPECT_EQ(a * a.Inverse(), S::One());
  }
}

TYPED_TEST(GroupLawTest, ScalarCodecRoundTrip) {
  using G = TypeParam;
  using S = typename G::Scalar;
  SecureRng rng("sc-" + G::Name());
  auto a = S::Random(rng);
  auto decoded = S::Decode(a.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, a);
  // Decoding the order itself must fail (not reduced).
  EXPECT_FALSE(S::Decode(S::Order().ToBytesBe()).has_value());
}

TYPED_TEST(GroupLawTest, ScalarToU64SmallValues) {
  using G = TypeParam;
  using S = typename G::Scalar;
  EXPECT_EQ(S::FromU64(12345).ToU64(), 12345u);
  SecureRng rng("u64-" + G::Name());
  // A random scalar is overwhelmingly unlikely to fit in 64 bits.
  EXPECT_FALSE(S::Random(rng).ToU64().has_value());
}

template <typename G>
class ScalarWideTest : public ::testing::Test {};

using AllGroupTypes = ::testing::Types<ModP64, ModP256, ModP512, ModP1024, ModP2048, Schnorr512,
                                       Schnorr2048, Ed25519Group>;
TYPED_TEST_SUITE(ScalarWideTest, AllGroupTypes);

// FromBytesWide is the exact reduction of the big-endian integer mod q, for
// every input length -- including inputs wider than two scalars (a 32-byte
// challenge digest on a 64-bit group) and the all-ones worst case.
TYPED_TEST(ScalarWideTest, ScalarFromBytesWideReduces) {
  using G = TypeParam;
  using S = typename G::Scalar;
  constexpr size_t kLimbs = S::Int::kLimbs;
  constexpr size_t kMaxBytes = 2 * kLimbs * 8 + 32;
  SecureRng rng("wide-" + G::Name());
  for (size_t len = 0; len <= kMaxBytes; ++len) {
    for (const Bytes& wide : {rng.RandomBytes(len), Bytes(len, 0xff)}) {
      auto as_int = BigInt<2 * kLimbs + 4>::FromBytesBe(wide);
      ASSERT_TRUE(as_int.has_value());
      EXPECT_EQ(S::FromBytesWide(wide).value(), Mod(*as_int, S::Order())) << "len=" << len;
    }
  }
}

}  // namespace
}  // namespace vdp
