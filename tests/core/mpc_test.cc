// Pi_Bin in the client-server MPC model (K >= 2): completeness, client
// inclusion/exclusion guarantees, and noise aggregation across provers.
#include <gtest/gtest.h>

#include "src/core/adversary.h"
#include "src/core/protocol.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

ProtocolConfig MpcConfig(size_t k, size_t m = 1) {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31
  config.num_provers = k;
  config.num_bins = m;
  config.session_id = "mpc-test-k" + std::to_string(k) + "-m" + std::to_string(m);
  return config;
}

TEST(MpcTest, HonestRunsAcceptForVariousK) {
  for (size_t k : {2u, 3u, 5u}) {
    SecureRng rng("mpc-k" + std::to_string(k));
    std::vector<uint32_t> values = {1, 1, 0, 1, 0, 0, 1, 1};
    auto result = RunHonestProtocol<G>(MpcConfig(k), values, rng);
    EXPECT_TRUE(result.accepted()) << "k=" << k << " " << result.verdict.detail;
    // Each of the K provers adds its own Binomial(nb, 1/2) draw.
    uint64_t nb = MpcConfig(k).NumCoins();
    EXPECT_GE(result.raw_histogram[0], 5u);
    EXPECT_LE(result.raw_histogram[0], 5u + k * nb);
  }
}

TEST(MpcTest, NoiseScalesWithNumberOfProvers) {
  // E[raw - count] = K * nb / 2; check the offset tracks K.
  SecureRng rng("mpc-noise-scale");
  std::vector<uint32_t> values(10, 1);
  double offset_k1 = 0;
  double offset_k3 = 0;
  constexpr int kRuns = 20;
  for (int run = 0; run < kRuns; ++run) {
    auto c1 = MpcConfig(1);
    c1.session_id += "-r" + std::to_string(run);
    auto c3 = MpcConfig(3);
    c3.session_id += "-r" + std::to_string(run);
    offset_k1 += static_cast<double>(RunHonestProtocol<G>(c1, values, rng).raw_histogram[0]) - 10;
    offset_k3 += static_cast<double>(RunHonestProtocol<G>(c3, values, rng).raw_histogram[0]) - 10;
  }
  offset_k1 /= kRuns;
  offset_k3 /= kRuns;
  // nb = 31: expected offsets 15.5 vs 46.5.
  EXPECT_NEAR(offset_k1, 15.5, 5.0);
  EXPECT_NEAR(offset_k3, 46.5, 8.0);
}

TEST(MpcTest, InvalidClientIsExcludedRunContinues) {
  SecureRng rng("mpc-exclude");
  auto config = MpcConfig(2);
  Pedersen<G> ped;
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  for (size_t i = 0; i < 5; ++i) {
    clients.push_back(MakeClientBundle<G>(1, i, config, ped, crng));
  }
  // Client 5 submits an illegal value of 7.
  clients.push_back(MakeNonBitClientBundle<G>(7, 5, config, ped, crng));

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < 2; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  auto result = RunProtocol(config, ped, clients, provers, vrng);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients.size(), 5u);  // cheater dropped
  // Output reflects only the 5 honest ones.
  EXPECT_GE(result.raw_histogram[0], 5u);
  EXPECT_LE(result.raw_histogram[0], 5u + 2 * config.NumCoins());
}

TEST(MpcTest, BadProofClientExcluded) {
  SecureRng rng("mpc-badproof");
  auto config = MpcConfig(2);
  Pedersen<G> ped;
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  clients.push_back(MakeClientBundle<G>(1, 0, config, ped, crng));
  clients.push_back(MakeBadProofClientBundle<G>(1, 1, config, ped, crng));

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < 2; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  auto result = RunProtocol(config, ped, clients, provers, vrng);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients, std::vector<size_t>{0});
}

TEST(MpcTest, InconsistentShareClientExcluded) {
  SecureRng rng("mpc-inconsistent");
  auto config = MpcConfig(2);
  Pedersen<G> ped;
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  clients.push_back(MakeClientBundle<G>(1, 0, config, ped, crng));
  clients.push_back(MakeInconsistentShareClientBundle<G>(1, 1, config, ped, crng));

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < 2; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  auto result = RunProtocol(config, ped, clients, provers, vrng);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients, std::vector<size_t>{0});
}

TEST(MpcTest, BatchedShareCheckMatchesPerClientOracle) {
  // Several clients send shares that do not open their public commitments,
  // each to a different prover (one with a missing bin, two whose errors
  // cancel in an unweighted sum). The batched share check must exclude
  // exactly the clients the per-client oracle excludes, with or without a
  // pool.
  SecureRng rng("mpc-share-batch");
  auto config = MpcConfig(3, /*m=*/3);
  Pedersen<G> ped;
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  for (size_t i = 0; i < 12; ++i) {
    clients.push_back(MakeClientBundle<G>(static_cast<uint32_t>(i % 3), i, config, ped, crng));
  }
  const S d = S::Random(crng);
  clients[1].shares[0].values[1] += S::One();       // bad value to prover 0
  clients[4].shares[2].randomness[0] += S::One();   // bad randomness to prover 2
  clients[6].shares[1].values.pop_back();           // missing bin to prover 1
  clients[8].shares[1].values[0] += d;              // cancelling pair across
  clients[9].shares[1].values[0] -= d;              //   two clients, prover 1
  clients[10].shares[0].randomness[2] += S::One();  // bad to provers 0 and 2
  clients[10].shares[2].values[2] += S::One();

  std::vector<size_t> oracle;
  for (size_t idx = 0; idx < clients.size(); ++idx) {
    bool ok = true;
    for (size_t k = 0; k < config.num_provers; ++k) {
      ok = ok && ClientShareConsistent(clients[idx].shares[k],
                                       clients[idx].upload.commitments[k], ped);
    }
    if (ok) {
      oracle.push_back(idx);
    }
  }
  ASSERT_EQ(oracle, (std::vector<size_t>{0, 2, 3, 5, 7, 11}));

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::unique_ptr<Prover<G>>> owned;
    std::vector<Prover<G>*> provers;
    for (size_t k = 0; k < config.num_provers; ++k) {
      owned.push_back(
          std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
      provers.push_back(owned.back().get());
    }
    SecureRng vrng = rng.Fork("verifier");
    auto result = RunProtocol(config, ped, clients, provers, vrng, p);
    ASSERT_TRUE(result.accepted()) << result.verdict.detail;
    EXPECT_EQ(result.accepted_clients, oracle) << "pool=" << (p != nullptr);
  }
}

TEST(MpcTest, DoubleVoteClientExcludedByOneHotCheck) {
  SecureRng rng("mpc-doublevote");
  auto config = MpcConfig(2, /*m=*/3);
  Pedersen<G> ped;
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  clients.push_back(MakeClientBundle<G>(0, 0, config, ped, crng));
  clients.push_back(MakeDoubleVoteClientBundle<G>(1, config, ped, crng));
  // Sanity: the double voter's per-bin proofs are individually valid, so
  // only the sum-to-one check can catch it.
  std::string reason;
  EXPECT_FALSE(ValidateClientUpload(clients[1].upload, 1, config, ped, &reason));
  EXPECT_EQ(reason, "bins do not sum to one");

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < 2; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  auto result = RunProtocol(config, ped, clients, provers, vrng);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients, std::vector<size_t>{0});
}

TEST(MpcTest, SharesAloneRevealNothingAboutInputs) {
  // A single prover's view of client shares is uniformly random: two clients
  // voting differently hand prover 0 identically distributed shares. Spot
  // check: the shares are not equal to the plaintext inputs.
  SecureRng rng("mpc-privacy");
  auto config = MpcConfig(2);
  Pedersen<G> ped;
  SecureRng crng = rng.Fork("clients");
  auto voter_yes = MakeClientBundle<G>(1, 0, config, ped, crng);
  auto voter_no = MakeClientBundle<G>(0, 1, config, ped, crng);
  EXPECT_NE(voter_yes.shares[0].values[0], S::One());
  EXPECT_NE(voter_no.shares[0].values[0], S::Zero());
  // And the two shares reconstruct different values.
  EXPECT_EQ(voter_yes.shares[0].values[0] + voter_yes.shares[1].values[0], S::One());
  EXPECT_EQ(voter_no.shares[0].values[0] + voter_no.shares[1].values[0], S::Zero());
}

TEST(MpcTest, SeedMorraModeWithMultipleProvers) {
  SecureRng rng("mpc-seed");
  auto config = MpcConfig(3);
  config.morra_mode = MorraMode::kSeed;
  std::vector<uint32_t> values(12, 1);
  auto result = RunHonestProtocol<G>(config, values, rng);
  EXPECT_TRUE(result.accepted());
}

}  // namespace
}  // namespace vdp
