#include "src/batch/msm.h"

#include <gtest/gtest.h>

namespace vdp {
namespace {

template <typename G>
std::pair<std::vector<typename G::Element>, std::vector<typename G::Scalar>> RandomInput(
    size_t n, SecureRng& rng) {
  using S = typename G::Scalar;
  std::vector<typename G::Element> bases;
  std::vector<S> scalars;
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(G::ExpG(S::Random(rng)));
    scalars.push_back(S::Random(rng));
  }
  return {bases, scalars};
}

template <typename G>
class MsmTest : public ::testing::Test {};

using GroupTypes = ::testing::Types<ModP256, Ed25519Group>;
TYPED_TEST_SUITE(MsmTest, GroupTypes);

TYPED_TEST(MsmTest, MatchesNaiveAcrossSizes) {
  using G = TypeParam;
  SecureRng rng("msm-sizes-" + G::Name());
  // Covers the empty case, the whole windowed-NAF range boundary, the
  // dispatch threshold, and several Pippenger sizes up to 257.
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 16u, 31u, 64u, 127u, 128u, 129u, 200u, 257u}) {
    auto [bases, scalars] = RandomInput<G>(n, rng);
    EXPECT_EQ(Msm<G>(bases, scalars), MsmNaive<G>(bases, scalars)) << "n=" << n;
  }
}

TYPED_TEST(MsmTest, WnafPathMatchesNaive) {
  using G = TypeParam;
  SecureRng rng("msm-wnaf-" + G::Name());
  for (size_t n : {1u, 5u, 33u, 150u}) {
    auto [bases, scalars] = RandomInput<G>(n, rng);
    EXPECT_EQ(MsmWnaf<G>(bases, scalars), MsmNaive<G>(bases, scalars)) << "n=" << n;
  }
}

TYPED_TEST(MsmTest, PippengerPathMatchesNaive) {
  using G = TypeParam;
  SecureRng rng("msm-pip-" + G::Name());
  for (size_t n : {1u, 5u, 33u, 150u}) {
    auto [bases, scalars] = RandomInput<G>(n, rng);
    EXPECT_EQ(MsmPippenger<G>(bases, scalars, 0, n), MsmNaive<G>(bases, scalars)) << "n=" << n;
  }
}

TYPED_TEST(MsmTest, EdgeScalars) {
  using G = TypeParam;
  using S = typename G::Scalar;
  SecureRng rng("msm-edge-" + G::Name());
  std::vector<typename G::Element> bases;
  std::vector<S> scalars;
  // zero, one, q-1, a power of two, and a random scalar.
  bases.push_back(G::ExpG(S::Random(rng)));
  scalars.push_back(S::Zero());
  bases.push_back(G::ExpG(S::Random(rng)));
  scalars.push_back(S::One());
  bases.push_back(G::ExpG(S::Random(rng)));
  scalars.push_back(S::Zero() - S::One());
  bases.push_back(G::ExpG(S::Random(rng)));
  scalars.push_back(S::FromU64(uint64_t{1} << 63));
  bases.push_back(G::Identity());
  scalars.push_back(S::Random(rng));
  EXPECT_EQ(Msm<G>(bases, scalars), MsmNaive<G>(bases, scalars));
  EXPECT_EQ(MsmWnaf<G>(bases, scalars), MsmNaive<G>(bases, scalars));
}

TYPED_TEST(MsmTest, AllZeroScalars) {
  using G = TypeParam;
  using S = typename G::Scalar;
  SecureRng rng("msm-zero-" + G::Name());
  std::vector<typename G::Element> bases(10, G::ExpG(S::Random(rng)));
  std::vector<S> scalars(10, S::Zero());
  EXPECT_EQ(Msm<G>(bases, scalars), G::Identity());
  EXPECT_EQ(MsmWnaf<G>(bases, scalars), G::Identity());
}

TYPED_TEST(MsmTest, PoolShardingMatchesSerial) {
  using G = TypeParam;
  SecureRng rng("msm-pool-" + G::Name());
  auto [bases, scalars] = RandomInput<G>(300, rng);
  ThreadPool pool(3);
  EXPECT_EQ(Msm<G>(bases, scalars, &pool), Msm<G>(bases, scalars));
}

TYPED_TEST(MsmTest, SizeMismatchThrows) {
  using G = TypeParam;
  std::vector<typename G::Element> bases(2, G::Identity());
  std::vector<typename G::Scalar> scalars(3);
  EXPECT_THROW(Msm<G>(bases, scalars), std::invalid_argument);
  EXPECT_THROW(MsmNaive<G>(bases, scalars), std::invalid_argument);
}

TEST(MsmInternalTest, WnafRecodingReconstructs) {
  // The signed digits must reconstruct the scalar: sum digits[j] * 2^j.
  SecureRng rng("wnaf-recode");
  using S = ModP256::Scalar;
  for (int iter = 0; iter < 20; ++iter) {
    S s = S::Random(rng);
    msm_internal::ScalarLimbs limbs(std::vector<S>{s});
    auto naf = msm_internal::ComputeWnaf(limbs[0], 4);
    S acc = S::Zero();
    S weight = S::One();
    S two = S::FromU64(2);
    for (size_t j = 0; j < naf.size(); ++j) {
      int d = naf[j];
      EXPECT_TRUE(d == 0 || (d % 2 != 0 && d > -8 && d < 8)) << "digit " << d;
      if (d > 0) {
        acc += weight * S::FromU64(static_cast<uint64_t>(d));
      } else if (d < 0) {
        acc -= weight * S::FromU64(static_cast<uint64_t>(-d));
      }
      weight *= two;
    }
    EXPECT_EQ(acc, s);
    // Non-adjacency: any two nonzero digits are >= w apart.
    size_t last_nonzero = naf.size();
    for (size_t j = 0; j < naf.size(); ++j) {
      if (naf[j] != 0) {
        if (last_nonzero != naf.size()) {
          EXPECT_GE(j - last_nonzero, 4u);
        }
        last_nonzero = j;
      }
    }
  }
}

}  // namespace
}  // namespace vdp
