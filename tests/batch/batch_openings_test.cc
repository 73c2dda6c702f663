// The batched Pedersen opening check against the per-opening oracle
// (Pedersen::Verify on every opening), on every group: empty, single, pair
// and large batches, one bad opening anywhere, and a cancelling pair that an
// unweighted product of the equations would accept.
#include "src/batch/batch_openings.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/group/group.h"

namespace vdp {
namespace {

template <typename G>
class BatchOpeningsTest : public ::testing::Test {};

using AllGroups = ::testing::Types<ModP64, ModP256, ModP512, ModP1024, ModP2048, Schnorr512,
                                   Schnorr2048, Ed25519Group>;
TYPED_TEST_SUITE(BatchOpeningsTest, AllGroups);

template <typename G>
struct Openings {
  std::vector<typename G::Element> c;
  std::vector<typename G::Scalar> m;
  std::vector<typename G::Scalar> r;
};

// n valid openings. Opening i + 1 is opening i plus a random step, its
// commitment the product of the two commitments (Com is homomorphic), so a
// large batch costs two commitments to build even on the 2048-bit groups.
template <typename G>
Openings<G> MakeValid(const Pedersen<G>& ped, size_t n, SecureRng& rng) {
  using S = typename G::Scalar;
  const S step_m = S::Random(rng);
  const S step_r = S::Random(rng);
  const typename G::Element step = ped.Commit(step_m, step_r);
  Openings<G> o;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0) {
      o.m.push_back(S::Random(rng));
      o.r.push_back(S::Random(rng));
      o.c.push_back(ped.Commit(o.m.back(), o.r.back()));
    } else {
      o.m.push_back(o.m.back() + step_m);
      o.r.push_back(o.r.back() + step_r);
      o.c.push_back(G::Mul(o.c.back(), step));
    }
  }
  return o;
}

template <typename G>
bool Batched(const Pedersen<G>& ped, const Openings<G>& o, ThreadPool* pool = nullptr) {
  return BatchOpeningsValid(
      ped, "test/openings", o.c.size(),
      [&](size_t i) { return OpeningRef<G>{o.c[i], o.m[i], o.r[i]}; }, pool);
}

// The per-opening oracle over openings [from, to).
template <typename G>
bool Oracle(const Pedersen<G>& ped, const Openings<G>& o, size_t from = 0,
            size_t to = static_cast<size_t>(-1)) {
  for (size_t i = from; i < std::min(to, o.c.size()); ++i) {
    if (!ped.Verify(o.c[i], o.m[i], o.r[i])) {
      return false;
    }
  }
  return true;
}

TYPED_TEST(BatchOpeningsTest, AgreesWithOracleOnValidBatches) {
  using G = TypeParam;
  Pedersen<G> ped;
  SecureRng rng("openings-valid/" + G::Name());
  ThreadPool pool(2);
  for (size_t n : {0u, 1u, 2u, 1000u}) {
    const Openings<G> o = MakeValid(ped, n, rng);
    ASSERT_TRUE(Oracle(ped, o)) << "n=" << n;
    EXPECT_TRUE(Batched(ped, o)) << "n=" << n;
    EXPECT_TRUE(Batched(ped, o, &pool)) << "n=" << n;
  }
}

TYPED_TEST(BatchOpeningsTest, OneBadOpeningRejectedAnywhere) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("openings-bad/" + G::Name());
  ThreadPool pool(2);
  for (size_t n : {1u, 2u, 1000u}) {
    const Openings<G> valid = MakeValid(ped, n, rng);
    for (size_t pos : {size_t{0}, n / 2, n - 1}) {
      for (bool in_r : {false, true}) {
        Openings<G> bad = valid;
        (in_r ? bad.r : bad.m)[pos] += S::One();
        // The others are the valid batch's; the oracle rejects this one.
        ASSERT_FALSE(Oracle(ped, bad, pos, pos + 1));
        EXPECT_FALSE(Batched(ped, bad)) << "n=" << n << " pos=" << pos << " r=" << in_r;
        EXPECT_FALSE(Batched(ped, bad, &pool)) << "n=" << n << " pos=" << pos;
      }
    }
    // A commitment that is not the one opened.
    Openings<G> swapped = valid;
    swapped.c[n - 1] = G::Mul(swapped.c[n - 1], G::Generator());
    ASSERT_FALSE(Oracle(ped, swapped, n - 1, n));
    EXPECT_FALSE(Batched(ped, swapped)) << "n=" << n;
  }
}

TYPED_TEST(BatchOpeningsTest, CancellingPairRejected) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("openings-cancel/" + G::Name());
  for (size_t n : {2u, 1000u}) {
    Openings<G> o = MakeValid(ped, n, rng);
    const S d = S::Random(rng);
    o.m[0] += d;
    o.m[n - 1] -= d;
    // Unweighted, the two errors cancel: prod c_i == Com(sum m_i, sum r_i).
    typename G::Element product = G::Identity();
    S sum_m = S::Zero();
    S sum_r = S::Zero();
    for (size_t i = 0; i < n; ++i) {
      product = G::Mul(product, o.c[i]);
      sum_m += o.m[i];
      sum_r += o.r[i];
    }
    ASSERT_EQ(product, ped.Commit(sum_m, sum_r));
    ASSERT_FALSE(Oracle(ped, o));
    EXPECT_FALSE(Batched(ped, o)) << "n=" << n;
  }
}

}  // namespace
}  // namespace vdp
