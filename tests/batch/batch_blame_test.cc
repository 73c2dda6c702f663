// Blame by bisection (OrBatch::Blame): on every adversarial placement of
// invalid proofs, the per-instance verdicts must equal OrVerify's, on a
// mod-p and a curve group, with and without a pool. The all-forged batch
// must stay within the stated worst case, and the search's MSM counts must
// repeat exactly from run to run.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/batch/batch_or_proof.h"

namespace vdp {
namespace {

template <PrimeOrderGroup G>
std::vector<OrInstance<G>> MakeBatch(const Pedersen<G>& ped, size_t n) {
  using S = typename G::Scalar;
  SecureRng rng("batch-blame/" + std::to_string(n));
  std::vector<typename G::Element> cs;
  std::vector<int> bits;
  std::vector<S> rs;
  for (size_t i = 0; i < n; ++i) {
    bits.push_back(static_cast<int>(i % 2));
    rs.push_back(S::Random(rng));
    cs.push_back(ped.Commit(S::FromU64(static_cast<uint64_t>(bits[i])), rs[i]));
  }
  const std::vector<OrProof<G>> proofs = OrProveBatch(ped, cs, bits, rs, rng, "batch-blame");
  std::vector<OrInstance<G>> instances;
  for (size_t i = 0; i < n; ++i) {
    instances.push_back({cs[i], proofs[i], "batch-blame/" + std::to_string(i)});
  }
  return instances;
}

// The three ways a proof is forged here: a response (fails equation 2 only),
// the other response (equation 3), and a sub-challenge (the split).
enum class Forge { kZ0, kZ1, kSplit };

template <PrimeOrderGroup G>
void ForgeProof(OrInstance<G>* inst, Forge how) {
  using S = typename G::Scalar;
  switch (how) {
    case Forge::kZ0:
      inst->proof.z0 += S::One();
      break;
    case Forge::kZ1:
      inst->proof.z1 += S::One();
      break;
    case Forge::kSplit:
      inst->proof.e0 += S::One();
      break;
  }
}

template <PrimeOrderGroup G>
std::vector<uint8_t> Oracle(const Pedersen<G>& ped, const std::vector<OrInstance<G>>& batch) {
  std::vector<uint8_t> valid;
  for (const OrInstance<G>& inst : batch) {
    valid.push_back(OrVerify(ped, inst.c, inst.proof, inst.context) ? 1 : 0);
  }
  return valid;
}

struct Counts {
  uint64_t msm_calls = 0;
  uint64_t msm_scalars = 0;
  uint64_t bisect_batches = 0;
};

Counts Snapshot() {
  return {obs::GlobalCounter(obs::kMsmCalls)->value(),
          obs::GlobalCounter(obs::kMsmScalars)->value(),
          obs::GlobalCounter(obs::kVerifyBisectBatches)->value()};
}

Counts Delta(const Counts& before, const Counts& after) {
  return {after.msm_calls - before.msm_calls, after.msm_scalars - before.msm_scalars,
          after.bisect_batches - before.bisect_batches};
}

// Blame's verdicts and the counters it moved (root check included).
template <PrimeOrderGroup G>
std::pair<std::vector<uint8_t>, Counts> RunBlame(const Pedersen<G>& ped,
                                                 const std::vector<OrInstance<G>>& batch,
                                                 ThreadPool* pool) {
  const Counts before = Snapshot();
  OrBatch<G> or_batch(ped, batch, pool);
  std::vector<uint8_t> valid = or_batch.Blame(pool);
  const Counts delta = Delta(before, Snapshot());
  EXPECT_EQ(delta.bisect_batches, or_batch.bisect_batches());
  return {std::move(valid), delta};
}

template <typename G>
class BatchBlameTest : public ::testing::Test {
 protected:
  // Forges `bad` (index, how) in a fresh batch of n and checks Blame
  // against the oracle, serially and on a pool, with identical counts.
  Counts Check(size_t n, const std::vector<std::pair<size_t, Forge>>& bad) {
    std::vector<OrInstance<G>> batch = MakeBatch(ped_, n);
    for (const auto& [index, how] : bad) {
      ForgeProof(&batch[index], how);
    }
    const std::vector<uint8_t> expected = Oracle(ped_, batch);
    const auto [serial, serial_counts] = RunBlame(ped_, batch, nullptr);
    ThreadPool pool(3);
    const auto [pooled, pooled_counts] = RunBlame(ped_, batch, &pool);
    EXPECT_EQ(serial, expected);
    EXPECT_EQ(pooled, expected);
    EXPECT_EQ(serial_counts.msm_calls, pooled_counts.msm_calls);
    EXPECT_EQ(serial_counts.msm_scalars, pooled_counts.msm_scalars);
    EXPECT_EQ(serial_counts.bisect_batches, pooled_counts.bisect_batches);
    EXPECT_EQ(BatchOrVerify(ped_, batch), bad.empty());
    return serial_counts;
  }

  Pedersen<G> ped_;
};

using Groups = ::testing::Types<ModP256, Ed25519Group>;
TYPED_TEST_SUITE(BatchBlameTest, Groups);

TYPED_TEST(BatchBlameTest, CleanBatchRunsOnlyTheRootCheck) {
  const Counts counts = this->Check(40, {});
  EXPECT_EQ(counts.msm_calls, 1u);
  EXPECT_EQ(counts.msm_scalars, 3u * 40);
  EXPECT_EQ(counts.bisect_batches, 0u);
}

TYPED_TEST(BatchBlameTest, OneCheaterAnywhere) {
  const size_t n = 64;
  for (size_t at : {size_t{0}, n - 1, n / 2 - 1, n / 2, size_t{17}}) {
    SCOPED_TRACE("cheater at " + std::to_string(at));
    const Counts counts = this->Check(n, {{at, Forge::kZ0}});
    // 64 -> 32 -> 16 -> 8 -> leaf of 4: four sub-batch MSMs over 32 + 16 +
    // 8 + 4 proofs.
    EXPECT_EQ(counts.bisect_batches, 4u);
    EXPECT_EQ(counts.msm_scalars, 3u * (64 + 32 + 16 + 8 + 4));
  }
}

TYPED_TEST(BatchBlameTest, TwoCheatersInSiblingHalves) {
  this->Check(64, {{31, Forge::kZ0}, {32, Forge::kZ1}});
  this->Check(64, {{15, Forge::kZ1}, {16, Forge::kZ1}});
}

TYPED_TEST(BatchBlameTest, TwoCheatersInOneLeaf) {
  this->Check(64, {{40, Forge::kZ0}, {41, Forge::kZ1}});
  this->Check(64, {{0, Forge::kZ1}, {3, Forge::kZ0}});
}

TYPED_TEST(BatchBlameTest, SplitForgeriesMixWithResponseForgeries) {
  this->Check(48, {{2, Forge::kSplit}, {3, Forge::kZ0}, {30, Forge::kZ1}, {47, Forge::kSplit}});
  // Only split forgeries: blamed directly, and the live proofs all pass.
  const Counts counts = this->Check(48, {{5, Forge::kSplit}, {6, Forge::kSplit}});
  EXPECT_EQ(counts.bisect_batches, 0u);
  EXPECT_EQ(counts.msm_scalars, 3u * 46);
}

TYPED_TEST(BatchBlameTest, OddSizesAndSingletons) {
  this->Check(1, {{0, Forge::kZ0}});
  this->Check(1, {});
  this->Check(2, {{1, Forge::kZ1}});
  this->Check(37, {{36, Forge::kZ0}});
  this->Check(37, {{0, Forge::kZ1}, {18, Forge::kZ0}, {19, Forge::kZ0}});
}

TYPED_TEST(BatchBlameTest, DenseForgeriesHitTheCutoff) {
  std::vector<std::pair<size_t, Forge>> every_third;
  for (size_t i = 0; i < 60; i += 3) {
    every_third.push_back({i, i % 2 == 0 ? Forge::kZ0 : Forge::kZ1});
  }
  const Counts counts = this->Check(60, every_third);
  // Searching every failing set down to the leaves would take 15 sub-batch
  // MSMs over 116 proofs; the allowance (60 proofs plus those cleared) stops
  // the search early and sends the rest to OrVerify.
  EXPECT_LT(counts.bisect_batches, 15u);
  EXPECT_LE(counts.msm_scalars, 2 * 3 * 60);
}

// The stated worst case: with every proof forged the search adds at most one
// RLC's worth of MSM scalars (3 per live proof) to the root's 3 per proof.
TYPED_TEST(BatchBlameTest, AllForgedCostsAtMostOneMoreRlc) {
  for (size_t n : {size_t{5}, size_t{64}, size_t{101}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::pair<size_t, Forge>> all;
    for (size_t i = 0; i < n; ++i) {
      all.push_back({i, i % 2 == 0 ? Forge::kZ0 : Forge::kZ1});
    }
    const Counts counts = this->Check(n, all);
    EXPECT_LE(counts.msm_scalars, 2 * 3 * n);
  }
}

TYPED_TEST(BatchBlameTest, RepeatedRunsCountTheSameMsms) {
  std::vector<OrInstance<TypeParam>> batch = MakeBatch(this->ped_, 50);
  ForgeProof(&batch[7], Forge::kZ0);
  ForgeProof(&batch[33], Forge::kZ1);
  const auto first = RunBlame(this->ped_, batch, nullptr);
  const auto second = RunBlame(this->ped_, batch, nullptr);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second.msm_calls, second.second.msm_calls);
  EXPECT_EQ(first.second.msm_scalars, second.second.msm_scalars);
  EXPECT_EQ(first.second.bisect_batches, second.second.bisect_batches);
}

}  // namespace
}  // namespace vdp
