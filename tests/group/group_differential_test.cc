// Differential group-law harness: every fast exponentiation path -- generic
// G::Exp, the comb fixed-base tables (signed and unsigned, several widths),
// windowed-NAF Straus, and Pippenger bucket accumulation -- is cross-checked
// against a schoolbook square-and-multiply oracle built from nothing but
// G::Mul. Typed over every group in the registry, on structured scalars that
// historically break windowed code (0, 1, 2, order-1, order-2, 2^k +/- 1,
// single-nibble digits, all-ones) plus a randomized sweep. Any mismatch
// prints the offending scalar in hex so the case can be pinned as a
// regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/batch/msm.h"
#include "src/common/rng.h"
#include "src/group/fixed_base.h"
#include "src/group/registry.h"

namespace vdp {
namespace {

// Schoolbook left-to-right square-and-multiply: touches only Identity and
// Mul, so it shares no code with any of the paths under test.
template <PrimeOrderGroup G>
typename G::Element SlowExp(const typename G::Element& base, const typename G::Scalar& s) {
  const auto& v = s.value();
  auto acc = G::Identity();
  for (size_t i = v.BitLength(); i-- > 0;) {
    acc = G::Mul(acc, acc);
    if (v.Bit(i)) {
      acc = G::Mul(acc, base);
    }
  }
  return acc;
}

// Scalars with the bit patterns windowed/comb/NAF recodings are most likely
// to mishandle: boundaries of the order, isolated and adjacent set bits at
// window seams, dense runs, and the exact top-bit position.
template <PrimeOrderGroup G>
std::vector<typename G::Scalar> StructuredScalars() {
  using S = typename G::Scalar;
  using Int = typename S::Int;
  const size_t bits = S::Order().BitLength();
  std::vector<S> out = {S::Zero(), S::One(), S::FromU64(2),
                        S::Zero() - S::One(),             // order - 1
                        S::Zero() - S::FromU64(2)};       // order - 2
  // 2^k - 1, 2^k, 2^k + 1 at positions spread over the scalar width,
  // including the order's own bit length (the top-window edge).
  for (size_t k : {size_t{1}, size_t{7}, bits / 4, bits / 2, (3 * bits) / 4,
                   bits - 2, bits - 1}) {
    Int p2 = Int::Zero();
    p2.SetBit(k);
    out.push_back(S::FromInt(p2));
    Int m = p2;
    typename S::Int one = Int::One();
    Int::SubInto(m, m, one);
    out.push_back(S::FromInt(m));
    out.push_back(S::FromInt(p2) + S::One());
  }
  // Single-nibble scalars: one 4-bit digit 0xF sliding across the width.
  for (size_t shift = 0; shift + 4 <= bits; shift += std::max<size_t>(4, bits / 8)) {
    Int v = Int::Zero();
    for (size_t b = 0; b < 4; ++b) {
      v.SetBit(shift + b);
    }
    out.push_back(S::FromInt(v));
  }
  // All-ones to the order's bit length (reduced mod the order).
  Int ones = Int::Zero();
  for (size_t b = 0; b < bits; ++b) {
    ones.SetBit(b);
  }
  out.push_back(S::FromInt(ones));
  return out;
}

// Random-sweep size scaled to the field width so the 2048-bit oracle does
// not dominate the suite's runtime.
size_t RandomCountFor(size_t order_bits) {
  if (order_bits <= 320) {
    return 1000;
  }
  if (order_bits <= 600) {
    return 200;
  }
  if (order_bits <= 1100) {
    return 50;
  }
  return 12;
}

template <typename G>
class GroupDifferentialTest : public ::testing::Test {};

using AllGroups = ::testing::Types<ModP64, ModP256, ModP512, ModP1024, ModP2048,
                                   Schnorr512, Schnorr2048, Ed25519Group>;
TYPED_TEST_SUITE(GroupDifferentialTest, AllGroups);

TYPED_TEST(GroupDifferentialTest, AllExpPathsMatchOracleOnStructuredScalars) {
  using G = TypeParam;
  const auto gen = G::Generator();
  const FixedBaseTable<G> table(gen);     // default width (signed on curves)
  const FixedBaseTable<G> narrow(gen, 3); // non-default width
  for (const auto& s : StructuredScalars<G>()) {
    const auto oracle = SlowExp<G>(gen, s);
    const std::string hex = "scalar=0x" + s.value().ToHex();
    EXPECT_TRUE(G::Exp(gen, s) == oracle) << "G::Exp " << hex;
    EXPECT_TRUE(table.Exp(s) == oracle) << "comb w=" << table.window() << " " << hex;
    EXPECT_TRUE(narrow.Exp(s) == oracle) << "comb w=3 " << hex;
    EXPECT_TRUE(MsmWnaf<G>({gen}, {s}) == oracle) << "wnaf " << hex;
    EXPECT_TRUE(MsmPippenger<G>({gen}, {s}, 0, 1) == oracle) << "pippenger " << hex;
  }
}

TYPED_TEST(GroupDifferentialTest, AllExpPathsMatchOracleOnRandomScalars) {
  using G = TypeParam;
  using S = typename G::Scalar;
  SecureRng rng("group-differential-" + G::Name());
  const auto gen = G::Generator();
  // A base other than the generator so table code sees arbitrary points.
  const auto base = G::Exp(gen, S::Random(rng));
  const FixedBaseTable<G> table(base);
  const size_t n = RandomCountFor(S::Order().BitLength());
  for (size_t i = 0; i < n; ++i) {
    S s = S::Random(rng);
    const auto oracle = SlowExp<G>(base, s);
    const std::string hex = "scalar=0x" + s.value().ToHex();
    EXPECT_TRUE(G::Exp(base, s) == oracle) << "G::Exp " << hex;
    EXPECT_TRUE(table.Exp(s) == oracle) << "comb " << hex;
    EXPECT_TRUE(MsmWnaf<G>({base}, {s}) == oracle) << "wnaf " << hex;
    EXPECT_TRUE(MsmPippenger<G>({base}, {s}, 0, 1) == oracle) << "pippenger " << hex;
  }
}

// Regression for the comb top-window edge: a table must serve scalars whose
// bit length equals the order's exactly (top row populated), at every width.
TYPED_TEST(GroupDifferentialTest, CombTopWindowAtOrderBitLength) {
  using G = TypeParam;
  using S = typename G::Scalar;
  using Int = typename S::Int;
  const size_t bits = S::Order().BitLength();
  const auto gen = G::Generator();
  Int top = Int::Zero();
  top.SetBit(bits - 1);
  const std::vector<S> edges = {S::FromInt(top),     // exactly the top bit
                                S::Zero() - S::One(),  // order - 1, full length
                                S::FromInt(top) + S::FromU64(3)};
  for (size_t w : {size_t{2}, size_t{4}, size_t{5}, size_t{7}, size_t{8}}) {
    const FixedBaseTable<G> table(gen, w);
    for (const auto& s : edges) {
      ASSERT_EQ(s.value().BitLength(), bits);
      const auto oracle = SlowExp<G>(gen, s);
      EXPECT_TRUE(table.Exp(s) == oracle)
          << "w=" << w << " scalar=0x" << s.value().ToHex();
    }
  }
}

TYPED_TEST(GroupDifferentialTest, MsmPathsMatchNaiveOnMixedBatches) {
  using G = TypeParam;
  using S = typename G::Scalar;
  SecureRng rng("group-msm-differential-" + G::Name());
  const auto gen = G::Generator();
  const size_t order_bits = S::Order().BitLength();
  std::vector<size_t> sizes = {2, 5};
  if (order_bits <= 320) {
    sizes.push_back(40);
  }
  for (size_t n : sizes) {
    std::vector<typename G::Element> bases(n);
    std::vector<S> scalars(n);
    for (size_t i = 0; i < n; ++i) {
      bases[i] = G::Exp(gen, S::Random(rng));
      // Mix in degenerate scalars so bucket/NAF paths see zeros and ones.
      scalars[i] = (i == 0) ? S::Zero() : (i == 1 ? S::One() : S::Random(rng));
    }
    const auto expected = MsmNaive<G>(bases, scalars);
    EXPECT_TRUE(MsmWnaf<G>(bases, scalars) == expected) << "wnaf n=" << n;
    EXPECT_TRUE(MsmPippenger<G>(bases, scalars, 0, n) == expected) << "pippenger n=" << n;
    EXPECT_TRUE(Msm<G>(bases, scalars) == expected) << "dispatch n=" << n;
  }
}

// The typed suite above must cover exactly the registered set: if a group is
// added to the registry without being added here, this fails.
TEST(GroupRegistryCoverageTest, TypedSuiteCoversEveryRegisteredGroup) {
  const std::vector<std::string> expected = {
      ModP64::Name(),      ModP256::Name(),      ModP512::Name(),
      ModP1024::Name(),    ModP2048::Name(),     Schnorr512::Name(),
      Schnorr2048::Name(), Ed25519Group::Name()};
  EXPECT_EQ(RegisteredGroupNames(), expected);
  // Spot-check the dispatch path round-trips each name.
  for (const auto& name : expected) {
    bool hit = DispatchRegisteredGroup(name, [&](auto tag) {
      using G = typename decltype(tag)::Group;
      EXPECT_EQ(G::Name(), name);
    });
    EXPECT_TRUE(hit) << name;
  }
  EXPECT_FALSE(DispatchRegisteredGroup("no-such-group", [](auto) {}));
}

}  // namespace
}  // namespace vdp
