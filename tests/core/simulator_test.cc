// Zero-knowledge: the Appendix D simulator fabricates accepting transcripts
// from the ideal output alone.
#include "src/core/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/client.h"
#include "src/core/verifier.h"
#include "src/dp/binomial.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

std::vector<G::Element> MakeClientCommitments(const Pedersen<G>& ped, size_t n,
                                              uint64_t true_count, SecureRng& rng,
                                              S* total_randomness = nullptr) {
  std::vector<G::Element> commitments;
  S total = S::Zero();
  for (size_t i = 0; i < n; ++i) {
    S x = S::FromU64(i < true_count ? 1 : 0);
    S r = S::Random(rng);
    commitments.push_back(ped.Commit(x, r));
    total += r;
  }
  if (total_randomness != nullptr) {
    *total_randomness = total;
  }
  return commitments;
}

TEST(SimulatorTest, SimulatedTranscriptPassesVerifierChecks) {
  Pedersen<G> ped;
  SecureRng rng("sim-accept");
  constexpr size_t kN = 10;
  constexpr uint64_t kCount = 6;
  constexpr size_t kCoins = 31;
  auto commitments = MakeClientCommitments(ped, kN, kCount, rng);
  // Ideal functionality output: count + Binomial noise.
  uint64_t ideal = kCount + SampleBinomialHalf(kCoins, rng);
  auto transcript = SimulateCurator(ped, commitments, S::FromU64(ideal), kCoins, rng);
  EXPECT_TRUE(VerifyCuratorTranscript(ped, commitments, transcript));
  EXPECT_EQ(transcript.y, S::FromU64(ideal));
  EXPECT_EQ(transcript.coin_commitments.size(), kCoins);
}

TEST(SimulatorTest, SimulatorNeverSawClientOpenings) {
  // The simulator receives only commitments (no openings, no inputs). Run it
  // against commitments whose openings were discarded before the call --
  // acceptance then *proves* no private data was needed.
  Pedersen<G> ped;
  SecureRng rng("sim-blind");
  std::vector<G::Element> commitments;
  {
    SecureRng ephemeral("ephemeral-client-secrets");
    commitments = MakeClientCommitments(ped, 8, 3, ephemeral);
    // openings destroyed here
  }
  auto transcript = SimulateCurator(ped, commitments, S::FromU64(42), 31, rng);
  EXPECT_TRUE(VerifyCuratorTranscript(ped, commitments, transcript));
}

TEST(SimulatorTest, WorksForArbitraryClaimedOutputs) {
  // ZK simulation is possible for *any* claimed y -- binding to the true
  // count is soundness's job (the real prover cannot open what it did not
  // compute), not zero-knowledge's.
  Pedersen<G> ped;
  SecureRng rng("sim-any");
  auto commitments = MakeClientCommitments(ped, 5, 2, rng);
  for (uint64_t claimed : {0ull, 7ull, 1000ull}) {
    auto transcript = SimulateCurator(ped, commitments, S::FromU64(claimed), 31, rng);
    EXPECT_TRUE(VerifyCuratorTranscript(ped, commitments, transcript)) << claimed;
  }
}

TEST(SimulatorTest, TamperedTranscriptFails) {
  Pedersen<G> ped;
  SecureRng rng("sim-tamper");
  auto commitments = MakeClientCommitments(ped, 5, 2, rng);
  auto transcript = SimulateCurator(ped, commitments, S::FromU64(10), 31, rng);
  ASSERT_TRUE(VerifyCuratorTranscript(ped, commitments, transcript));

  auto bad_y = transcript;
  bad_y.y = bad_y.y + S::One();
  EXPECT_FALSE(VerifyCuratorTranscript(ped, commitments, bad_y));

  auto bad_bit = transcript;
  bad_bit.public_bits[0] = !bad_bit.public_bits[0];
  EXPECT_FALSE(VerifyCuratorTranscript(ped, commitments, bad_bit));

  auto bad_coin = transcript;
  bad_coin.coin_commitments[3] = G::Mul(bad_coin.coin_commitments[3], G::Generator());
  EXPECT_FALSE(VerifyCuratorTranscript(ped, commitments, bad_coin));
}

TEST(SimulatorTest, SimulatedCoinCommitmentsAdmitOrSimulation) {
  // In the O_OR-hybrid model the simulator also answers the bit-membership
  // queries; concretely, chosen-challenge OR transcripts accept for every
  // simulated coin commitment.
  Pedersen<G> ped;
  SecureRng rng("sim-or");
  auto commitments = MakeClientCommitments(ped, 4, 2, rng);
  auto transcript = SimulateCurator(ped, commitments, S::FromU64(17), 8, rng);
  for (const auto& c : transcript.coin_commitments) {
    S challenge = S::Random(rng);
    auto or_transcript = OrSimulate(ped, c, challenge, rng);
    EXPECT_TRUE(OrVerifyWithChallenge(ped, c, or_transcript, challenge));
  }
}

TEST(SimulatorTest, PublicBitsLookUniform) {
  Pedersen<G> ped;
  SecureRng rng("sim-bits");
  auto commitments = MakeClientCommitments(ped, 3, 1, rng);
  constexpr size_t kCoins = 2000;
  auto transcript = SimulateCurator(ped, commitments, S::FromU64(100), kCoins, rng);
  size_t ones = 0;
  for (bool b : transcript.public_bits) {
    ones += b ? 1 : 0;
  }
  double sigma = std::sqrt(kCoins * 0.25);
  EXPECT_NEAR(static_cast<double>(ones), kCoins / 2.0, 5 * sigma);
}

TEST(SimulatorTest, UpdateCommitmentIsAnInvolution) {
  Pedersen<G> ped;
  SecureRng rng("sim-invol");
  auto c = ped.Commit(S::FromU64(1), S::Random(rng));
  EXPECT_EQ(UpdateCommitment(ped, UpdateCommitment(ped, c, true), true), c);
  EXPECT_EQ(UpdateCommitment(ped, c, false), c);
}

// Lines 12-13 for the simulated transcript, run by the live verifier of a
// K = 1, M = 1 round: the coin messages, public bits and (y, z) in the
// shapes PublicVerifier consumes.
struct LiveRound {
  ProtocolConfig config;
  G::Element client_product = G::Identity();
  ProverCoinsMsg<G> coins;
  std::vector<std::vector<bool>> public_bits;
  ProverOutputMsg<G> output;

  LiveRound(const Pedersen<G>& ped, SecureRng& rng) {
    config.epsilon = 4.0;
    config.num_provers = 1;
    config.num_bins = 1;
    const size_t nb = config.NumCoins();
    auto commitments = MakeClientCommitments(ped, 6, 4, rng);
    for (const auto& c : commitments) {
      client_product = G::Mul(client_product, c);
    }
    auto transcript = SimulateCurator(ped, commitments, S::FromU64(4 + nb / 2), nb, rng);
    coins.coin_commitments = {transcript.coin_commitments};
    public_bits = {transcript.public_bits};
    output.y = {transcript.y};
    output.z = {transcript.z};
  }

  bool Check(const Pedersen<G>& ped) const {
    return PublicVerifier<G>(config, ped)
        .CheckFinalWithProducts({client_product}, coins, public_bits, output);
  }
};

TEST(SimulatorTest, LivePublicVerifierAcceptsTheSimulatedTranscript) {
  Pedersen<G> ped;
  SecureRng rng("sim-live");
  LiveRound round(ped, rng);
  EXPECT_TRUE(round.Check(ped));

  auto bad_bit = round;
  bad_bit.public_bits[0][1] = !bad_bit.public_bits[0][1];
  EXPECT_FALSE(bad_bit.Check(ped));
  auto bad_y = round;
  bad_y.output.y[0] += S::One();
  EXPECT_FALSE(bad_y.Check(ped));
}

// A coin row and a public-bit row of different lengths, or a missing row,
// must be refused before Eq. 10 indexes past either.
TEST(SimulatorTest, CoinAndPublicBitCountMismatchRejected) {
  Pedersen<G> ped;
  SecureRng rng("sim-lengths");
  LiveRound round(ped, rng);
  ASSERT_TRUE(round.Check(ped));

  auto short_bits = round;
  short_bits.public_bits[0].pop_back();
  EXPECT_FALSE(short_bits.Check(ped));
  auto long_bits = round;
  long_bits.public_bits[0].push_back(false);
  EXPECT_FALSE(long_bits.Check(ped));
  auto short_coins = round;
  short_coins.coins.coin_commitments[0].pop_back();
  EXPECT_FALSE(short_coins.Check(ped));
  auto no_bit_rows = round;
  no_bit_rows.public_bits.clear();
  EXPECT_FALSE(no_bit_rows.Check(ped));
  auto no_coin_rows = round;
  no_coin_rows.coins.coin_commitments.clear();
  EXPECT_FALSE(no_coin_rows.Check(ped));

  EXPECT_FALSE(CheckFinalBin(ped, round.client_product, round.coins.coin_commitments[0],
                             short_bits.public_bits[0], round.output.y[0], round.output.z[0]));
}

TEST(SimulatorTest, EmptyClientSetSupported) {
  Pedersen<G> ped;
  SecureRng rng("sim-empty");
  std::vector<G::Element> no_clients;
  auto transcript = SimulateCurator(ped, no_clients, S::FromU64(12), 31, rng);
  EXPECT_TRUE(VerifyCuratorTranscript(ped, no_clients, transcript));
}

}  // namespace
}  // namespace vdp
