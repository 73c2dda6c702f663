#include "src/group/modp_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/common/timer.h"
#include "src/core/protocol.h"
#include "src/math/primality.h"

namespace vdp {
namespace {

TEST(SchnorrParamsTest, ModuliAndOrdersArePrime) {
  SecureRng rng("schnorr-prime");
  EXPECT_TRUE(IsProbablePrime(Schnorr512Params().p, 12, rng));
  EXPECT_TRUE(IsProbablePrime(Schnorr512Params().q, 24, rng));
  EXPECT_TRUE(IsProbablePrime(Schnorr2048Params().p, 4, rng));
  EXPECT_TRUE(IsProbablePrime(Schnorr2048Params().q, 24, rng));
}

TEST(SchnorrParamsTest, BitLengthsAreExact) {
  EXPECT_EQ(Schnorr512Params().p.BitLength(), 512u);
  EXPECT_EQ(Schnorr512Params().q.BitLength(), 256u);
  EXPECT_EQ(Schnorr2048Params().p.BitLength(), 2048u);
  EXPECT_EQ(Schnorr2048Params().q.BitLength(), 256u);
}

TEST(SchnorrParamsTest, CofactorTimesOrderIsPMinusOne) {
  auto check = [](const auto& params) {
    constexpr size_t L = std::remove_reference_t<decltype(params.p)>::kLimbs;
    auto product = Mul(params.cofactor, params.q.template Resize<L>());
    BigInt<L> p_minus_1 = params.p;
    BigInt<L>::SubInto(p_minus_1, p_minus_1, BigInt<L>::One());
    EXPECT_EQ(product.template Resize<L>(), p_minus_1);
    // No overflow into the upper limbs.
    for (size_t i = L; i < 2 * L; ++i) {
      EXPECT_EQ(product.limb[i], 0u);
    }
  };
  check(Schnorr512Params());
  check(Schnorr2048Params());
}

TEST(SchnorrGroupTest, GeneratorHasOrderQ) {
  EXPECT_TRUE(Schnorr512::InSubgroup(Schnorr512::Generator()));
  EXPECT_NE(Schnorr512::Generator(), Schnorr512::Identity());
  EXPECT_TRUE(Schnorr2048::InSubgroup(Schnorr2048::Generator()));
  EXPECT_NE(Schnorr2048::Generator(), Schnorr2048::Identity());
}

TEST(SchnorrGroupTest, ScalarsAre256Bit) {
  EXPECT_EQ(Schnorr512::Scalar::Order().BitLength(), 256u);
  EXPECT_EQ(Schnorr2048::Scalar::Order().BitLength(), 256u);
  // Element width is unchanged.
  EXPECT_EQ(Schnorr512::kElementSize, 64u);
  EXPECT_EQ(Schnorr2048::kElementSize, 256u);
}

TEST(SchnorrGroupTest, GroupLaws) {
  using G = Schnorr512;
  SecureRng rng("schnorr-laws");
  auto x = G::Scalar::Random(rng);
  auto y = G::Scalar::Random(rng);
  EXPECT_EQ(G::ExpG(x + y), G::Mul(G::ExpG(x), G::ExpG(y)));
  EXPECT_EQ(G::Exp(G::ExpG(x), y), G::ExpG(x * y));
  EXPECT_EQ(G::Mul(G::ExpG(x), G::Inverse(G::ExpG(x))), G::Identity());
}

TEST(SchnorrGroupTest, DecodeEnforcesSubgroupMembership) {
  using G = Schnorr512;
  SecureRng rng("schnorr-decode");
  auto e = G::ExpG(G::Scalar::Random(rng));
  auto decoded = G::Decode(G::Encode(e));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, e);
  // A generator of the full group (order p-1 element, e.g. a non-residue
  // outside the subgroup): encode a small integer that is not in the
  // subgroup. 2 is in the subgroup only if 2^q = 1; test both branches.
  BigInt<8> two = BigInt<8>::FromU64(2);
  Bytes enc = two.ToBytesBe();
  auto maybe = G::Decode(enc);
  if (maybe.has_value()) {
    EXPECT_TRUE(G::InSubgroup(*maybe));
  }
  // Zero and p are always rejected.
  EXPECT_FALSE(G::Decode(Bytes(G::kElementSize, 0)).has_value());
  EXPECT_FALSE(G::Decode(Schnorr512Params().p.ToBytesBe()).has_value());
}

TEST(SchnorrGroupTest, HashToGroupClearsCofactor) {
  auto h = Schnorr512::HashToGroup(StrView("pedersen"), StrView("generator-h"));
  EXPECT_TRUE(Schnorr512::InSubgroup(h));
  EXPECT_NE(h, Schnorr512::Identity());
}

TEST(SchnorrGroupTest, EndToEndProtocolRuns) {
  // The whole Pi_Bin stack is group-generic; run it on the short-exponent
  // group to prove the new backend is a drop-in.
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.session_id = "schnorr-e2e";
  SecureRng rng("schnorr-e2e");
  std::vector<uint32_t> bits = {1, 0, 1, 1};
  auto result = RunHonestProtocol<Schnorr512>(config, bits, rng);
  EXPECT_TRUE(result.accepted()) << result.verdict.detail;
  EXPECT_GE(result.raw_histogram[0], 3u);
}

TEST(SchnorrGroupTest, ShortExponentsAreFasterThanSafePrimeExponents) {
  // The entire point of the DSA-style parameters: same modulus size,
  // ~2x+ cheaper exponentiation because the exponent is 256 bits, not 511.
  using Fast = Schnorr512;
  using Slow = ModP512;
  SecureRng rng("schnorr-speed");
  auto fast_scalar = Fast::Scalar::Random(rng);
  auto slow_scalar = Slow::Scalar::Random(rng);
  auto fast_base = Fast::Generator();
  auto slow_base = Slow::Generator();

  // Alternate the two timed loops and keep each side's fastest of five, so
  // a burst of load from a neighbouring process slows both sides' worst
  // trials instead of one side's only trial.
  volatile uint64_t sink = 0;
  double fast_ms = std::numeric_limits<double>::infinity();
  double slow_ms = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 5; ++trial) {
    Stopwatch t1;
    for (int i = 0; i < 50; ++i) {
      sink = Fast::Exp(fast_base, fast_scalar).value().limb[0];
    }
    fast_ms = std::min(fast_ms, t1.ElapsedMillis());
    Stopwatch t2;
    for (int i = 0; i < 50; ++i) {
      sink = Slow::Exp(slow_base, slow_scalar).value().limb[0];
    }
    slow_ms = std::min(slow_ms, t2.ElapsedMillis());
  }
  (void)sink;
  EXPECT_LT(fast_ms * 1.3, slow_ms) << "fast=" << fast_ms << " slow=" << slow_ms;
}

}  // namespace
}  // namespace vdp
