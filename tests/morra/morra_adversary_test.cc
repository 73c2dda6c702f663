#include "src/morra/adversary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "src/common/thread_pool.h"
#include "src/group/ed25519.h"

namespace vdp {
namespace {

using G = ModP256;

TEST(MorraAdversaryTest, EquivocationIsDetectedAndAttributed) {
  Pedersen<G> ped;
  MorraParty<G> honest(SecureRng("honest"));
  EquivocatingMorraParty<G> cheater{SecureRng("cheater")};
  std::vector<MorraParty<G>*> parties = {&honest, &cheater};
  auto outcome = RunMorra(parties, 16, ped);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(outcome.cheater, 1u);
}

TEST(MorraAdversaryTest, EquivocationDetectedInAnyPosition) {
  Pedersen<G> ped;
  for (size_t pos = 0; pos < 3; ++pos) {
    std::vector<std::unique_ptr<MorraParty<G>>> owned;
    for (size_t i = 0; i < 3; ++i) {
      if (i == pos) {
        owned.push_back(std::make_unique<EquivocatingMorraParty<G>>(SecureRng("e")));
      } else {
        // append(), not "h" + std::to_string(i): GCC 12 at -O3 warns -Wrestrict
        // (a false positive) on operator+(const char*, std::string&&).
        owned.push_back(std::make_unique<MorraParty<G>>(
            SecureRng(std::string("h").append(std::to_string(i)))));
      }
    }
    std::vector<MorraParty<G>*> parties;
    for (auto& p : owned) {
      parties.push_back(p.get());
    }
    auto outcome = RunMorra(parties, 8, ped);
    EXPECT_TRUE(outcome.aborted);
    EXPECT_EQ(outcome.cheater, pos);
  }
}

TEST(MorraAdversaryTest, AbortIsDetectedNotBiased) {
  Pedersen<G> ped;
  MorraParty<G> honest(SecureRng("honest"));
  AbortingMorraParty<G> aborter{SecureRng("aborter")};
  std::vector<MorraParty<G>*> parties = {&honest, &aborter};
  auto outcome = RunMorra(parties, 16, ped);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(outcome.cheater, 1u);
  EXPECT_TRUE(outcome.coins.empty());
}

TEST(MorraAdversaryTest, OneHonestPartyKeepsCoinsUnbiased) {
  // Two colluding parties contribute zeros; a single honest party's uniform
  // contribution keeps the coins balanced (the paper's dishonest-majority
  // guarantee).
  Pedersen<G> ped;
  MorraParty<G> honest(SecureRng("the-only-honest"));
  ZeroContributionMorraParty<G> z1{SecureRng("z1")};
  ZeroContributionMorraParty<G> z2{SecureRng("z2")};
  std::vector<MorraParty<G>*> parties = {&z1, &honest, &z2};
  constexpr size_t kCoins = 2000;
  auto outcome = RunMorra(parties, kCoins, ped);
  ASSERT_FALSE(outcome.aborted);
  size_t ones = 0;
  for (bool c : outcome.coins) {
    ones += c ? 1 : 0;
  }
  double sigma = std::sqrt(kCoins * 0.25);
  EXPECT_NEAR(static_cast<double>(ones), kCoins / 2.0, 5 * sigma);
}

TEST(MorraAdversaryTest, CommitmentFreeMorraIsFullyBiasable) {
  // Theorem 5.2's executable intuition: without commitments the last
  // announcer dictates every coin.
  SecureRng rng("last-mover");
  auto forced_ones = RunCommitmentFreeMorra<G>(/*num_honest=*/3, /*num_coins=*/100,
                                               /*adversary_last=*/true,
                                               /*target_value=*/true, rng);
  for (bool c : forced_ones.coins) {
    EXPECT_TRUE(c);
  }
  auto forced_zeros = RunCommitmentFreeMorra<G>(3, 100, true, false, rng);
  for (bool c : forced_zeros.coins) {
    EXPECT_FALSE(c);
  }
}

TEST(MorraAdversaryTest, CommitmentFreeWithoutAdversaryIsBalanced) {
  SecureRng rng("no-adversary");
  auto result = RunCommitmentFreeMorra<G>(3, 4000, /*adversary_last=*/false, false, rng);
  size_t ones = 0;
  for (bool c : result.coins) {
    ones += c ? 1 : 0;
  }
  double sigma = std::sqrt(4000 * 0.25);
  EXPECT_NEAR(static_cast<double>(ones), 2000.0, 5 * sigma);
}

TEST(MorraAdversaryTest, CommittedMorraDefeatsTheSameLastMover) {
  // The equivocating adversary is exactly a last-mover trying to re-pick its
  // contribution post-hoc; with commitments the attempt is caught, so the
  // contrast with CommitmentFreeMorraIsFullyBiasable is the separation story.
  Pedersen<G> ped;
  MorraParty<G> h1(SecureRng("h1"));
  MorraParty<G> h2(SecureRng("h2"));
  EquivocatingMorraParty<G> adv{SecureRng("adv")};
  std::vector<MorraParty<G>*> parties = {&h1, &h2, &adv};
  auto outcome = RunMorra(parties, 32, ped);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(outcome.cheater, 2u);
}

// Reveals its honest openings after editing them: a targeted equivocation.
template <PrimeOrderGroup G>
class TamperingMorraParty : public MorraParty<G> {
 public:
  using Base = MorraParty<G>;
  using typename Base::Opening;
  using Tamper = std::function<void(std::vector<Opening>&)>;

  TamperingMorraParty(SecureRng rng, Tamper tamper)
      : Base(std::move(rng)), tamper_(std::move(tamper)) {}

  std::vector<Opening> RevealPhase() override {
    std::vector<Opening> openings = this->openings_;
    tamper_(openings);
    return openings;
  }

 private:
  Tamper tamper_;
};

// Records every commitment broadcast it observes.
template <PrimeOrderGroup G>
class RecordingMorraParty : public MorraParty<G> {
 public:
  using Base = MorraParty<G>;
  using typename Base::Element;

  explicit RecordingMorraParty(SecureRng rng) : Base(std::move(rng)) {}

  void ObserveCommitments(size_t party, const std::vector<Element>& commitments) override {
    seen.emplace_back(party, commitments);
  }

  std::vector<std::pair<size_t, std::vector<Element>>> seen;
};

using Tamper = TamperingMorraParty<G>::Tamper;
using S = G::Scalar;

// Three parties, the one at `pos` tampering; the outcome with and without a
// pool must be the same abort with the same blame.
void ExpectBlamed(size_t pos, const Tamper& tamper, size_t num_coins, const std::string& what) {
  Pedersen<G> ped;
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::unique_ptr<MorraParty<G>>> owned;
    for (size_t i = 0; i < 3; ++i) {
      SecureRng rng("tamper-" + std::to_string(i));
      if (i == pos) {
        owned.push_back(std::make_unique<TamperingMorraParty<G>>(std::move(rng), tamper));
      } else {
        owned.push_back(std::make_unique<MorraParty<G>>(std::move(rng)));
      }
    }
    std::vector<MorraParty<G>*> parties;
    for (auto& party : owned) {
      parties.push_back(party.get());
    }
    auto outcome = RunMorra(parties, num_coins, ped, p);
    EXPECT_TRUE(outcome.aborted) << what << " pos=" << pos << " pool=" << (p != nullptr);
    EXPECT_EQ(outcome.cheater, pos) << what << " pool=" << (p != nullptr);
    EXPECT_TRUE(outcome.coins.empty()) << what;
  }
}

TEST(MorraAdversaryTest, EquivocationOnOneCoinIsAttributed) {
  constexpr size_t kCoins = 64;
  for (size_t pos = 0; pos < 3; ++pos) {
    ExpectBlamed(pos, [](auto& o) { o.front().m += S::One(); }, kCoins, "first coin, m");
    ExpectBlamed(pos, [](auto& o) { o.back().m += S::One(); }, kCoins, "last coin, m");
    ExpectBlamed(pos, [](auto& o) { o[kCoins / 2].r += S::One(); }, kCoins, "middle coin, r");
    ExpectBlamed(pos, [](auto& o) { o.back().r = S::Zero(); }, kCoins, "last coin, r");
  }
}

TEST(MorraAdversaryTest, EquivocationOnTheOnlyCoinIsAttributed) {
  // One coin takes the single-opening path of the batch check.
  for (size_t pos = 0; pos < 3; ++pos) {
    ExpectBlamed(pos, [](auto& o) { o.front().m += S::One(); }, 1, "only coin, m");
    ExpectBlamed(pos, [](auto& o) { o.front().r += S::One(); }, 1, "only coin, r");
  }
}

TEST(MorraAdversaryTest, CancellingPairIsAttributed) {
  // m_a + d and m_b - d leave sum m unchanged, so an unweighted product of
  // the opening equations would accept; the weighted check must not. The
  // shifted contributions would move coins a and b.
  SecureRng d_rng("cancelling-pair");
  const S d = S::Random(d_rng);
  for (size_t pos = 0; pos < 3; ++pos) {
    ExpectBlamed(
        pos,
        [&](auto& o) {
          o[3].m += d;
          o[40].m -= d;
        },
        64, "cancelling pair");
    ExpectBlamed(
        pos,
        [&](auto& o) {
          o.front().m += d;
          o.back().m -= d;
          o.front().r -= d;
          o.back().r += d;
        },
        64, "cancelling pair in m and r");
  }
}

TEST(MorraAdversaryTest, EquivocatorInEachPositionWithAndWithoutPool) {
  Pedersen<G> ped;
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (size_t pos = 0; pos < 3; ++pos) {
      std::vector<std::unique_ptr<MorraParty<G>>> owned;
      for (size_t i = 0; i < 3; ++i) {
        if (i == pos) {
          owned.push_back(std::make_unique<EquivocatingMorraParty<G>>(SecureRng("e")));
        } else {
          owned.push_back(std::make_unique<MorraParty<G>>(
              SecureRng(std::string("h").append(std::to_string(i)))));
        }
      }
      std::vector<MorraParty<G>*> parties;
      for (auto& party : owned) {
        parties.push_back(party.get());
      }
      auto outcome = RunMorra(parties, 200, ped, p);
      EXPECT_TRUE(outcome.aborted);
      EXPECT_EQ(outcome.cheater, pos) << "pool=" << (p != nullptr);
    }
  }
}

TEST(MorraAdversaryTest, LastRevealingCheaterIsBlamedFirst) {
  // Reveals run in reverse index order and stop at the first bad batch, so
  // with cheaters at 0 and 2 the blame falls on 2.
  Pedersen<G> ped;
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EquivocatingMorraParty<G> first{SecureRng("c0")};
    MorraParty<G> honest(SecureRng("h1"));
    TamperingMorraParty<G> last(SecureRng("c2"), [](auto& o) { o[7].r += S::One(); });
    std::vector<MorraParty<G>*> parties = {&first, &honest, &last};
    auto outcome = RunMorra(parties, 32, ped, p);
    EXPECT_TRUE(outcome.aborted);
    EXPECT_EQ(outcome.cheater, 2u);
  }
}

// The pool computes commitments and shards the checks; it must not change a
// commitment or a coin.
template <PrimeOrderGroup H>
void ExpectPoolInvariant(size_t num_coins) {
  Pedersen<H> ped;
  ThreadPool pool(2);
  std::vector<std::vector<bool>> coins;
  std::vector<std::vector<Bytes>> broadcasts;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    MorraParty<H> honest(SecureRng("pool-invariant-0"));
    ZeroContributionMorraParty<H> zero{SecureRng("pool-invariant-1")};
    RecordingMorraParty<H> recorder(SecureRng("pool-invariant-2"));
    std::vector<MorraParty<H>*> parties = {&honest, &zero, &recorder};
    auto outcome = RunMorra(parties, num_coins, ped, p);
    ASSERT_FALSE(outcome.aborted);
    ASSERT_EQ(outcome.coins.size(), num_coins);
    coins.push_back(outcome.coins);
    ASSERT_EQ(recorder.seen.size(), 2u);
    std::vector<Bytes> encoded;
    for (const auto& [party, commitments] : recorder.seen) {
      ASSERT_EQ(commitments.size(), num_coins);
      for (const auto& c : commitments) {
        encoded.push_back(H::Encode(c));
      }
    }
    broadcasts.push_back(encoded);
  }
  EXPECT_EQ(coins[0], coins[1]);
  EXPECT_EQ(broadcasts[0], broadcasts[1]);
}

TEST(MorraAdversaryTest, PoolDoesNotChangeCoinsOrCommitments) {
  ExpectPoolInvariant<G>(300);
  ExpectPoolInvariant<Ed25519Group>(300);
}

}  // namespace
}  // namespace vdp
