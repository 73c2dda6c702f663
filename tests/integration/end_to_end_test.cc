// Full-pipeline integration tests across group backends: clients share and
// prove, provers commit/prove/aggregate, Morra flips coins, the public
// verifier audits, and the published histogram is the true answer plus
// certified Binomial noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/baseline/nonverifiable_curator.h"
#include "src/core/adversary.h"
#include "src/core/histogram.h"
#include "src/core/protocol.h"
#include "src/net/server_process.h"

namespace vdp {
namespace {

template <typename G>
class EndToEndTest : public ::testing::Test {};

using GroupTypes = ::testing::Types<ModP256, ModP512, Ed25519Group>;
TYPED_TEST_SUITE(EndToEndTest, GroupTypes);

ProtocolConfig E2eConfig(size_t k, size_t m, const std::string& sid) {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31
  config.num_provers = k;
  config.num_bins = m;
  config.session_id = sid;
  // CI hook: one workflow configuration exports VDP_NUM_VERIFY_SHARDS > 1 so
  // the whole integration suite exercises the sharded validation pipeline
  // (src/shard/), which is decision-equivalent to the monolithic path.
  if (const char* env = std::getenv("VDP_NUM_VERIFY_SHARDS")) {
    config.num_verify_shards = static_cast<size_t>(std::max(1L, std::strtol(env, nullptr, 10)));
  }
  // Second CI hook: VDP_REMOTE_VERIFIERS ("spawn:N" stands up a shared
  // loopback verify_server fleet; or an endpoint list with
  // VDP_REMOTE_AUTH_KEY) pushes the same suite through the remote socket
  // backend (src/net/), which is equally decision-identical. When the env
  // var is non-empty the hook MUST apply -- silently degrading to the
  // in-process path would let the remote CI jobs go green while testing
  // nothing remote. (CI matrix entries without a fleet export it empty.)
  const char* remote_env = std::getenv("VDP_REMOTE_VERIFIERS");
  if (!net::ApplyRemoteEnvHook(&config) && remote_env != nullptr && remote_env[0] != '\0') {
    ADD_FAILURE() << "VDP_REMOTE_VERIFIERS is set but no remote fleet could be "
                     "applied (is verify_server next to the test binary?)";
  }
  return config;
}

TYPED_TEST(EndToEndTest, TrustedCuratorAcceptsOnEveryBackend) {
  using G = TypeParam;
  SecureRng rng("e2e-curator-" + G::Name());
  std::vector<uint32_t> bits = {1, 0, 1, 1, 0};
  auto result = RunHonestProtocol<G>(E2eConfig(1, 1, "e2e-" + G::Name()), bits, rng);
  EXPECT_TRUE(result.accepted()) << result.verdict.detail;
  EXPECT_GE(result.raw_histogram[0], 3u);
  EXPECT_LE(result.raw_histogram[0], 3u + 31u);
}

TYPED_TEST(EndToEndTest, MpcHistogramAcceptsOnEveryBackend) {
  using G = TypeParam;
  SecureRng rng("e2e-mpc-" + G::Name());
  std::vector<uint32_t> votes = {0, 1, 2, 1, 1};
  auto config = E2eConfig(2, 3, "e2e-mpc-" + G::Name());
  auto [result, summary] = RunVerifiableElection<G>(config, votes, rng);
  EXPECT_TRUE(result.accepted()) << result.verdict.detail;
  EXPECT_EQ(summary.estimates.size(), 3u);
}

TEST(EndToEndTest2, VerifiableOutputMatchesNonVerifiableDistribution) {
  // Verifiability must not change the mechanism: the verifiable pipeline's
  // output distribution (count + Binomial(nb,1/2)) matches the plain
  // curator's. Compare means over repeated runs.
  using G = ModP256;
  SecureRng rng("dist-match");
  std::vector<uint32_t> bits(30, 1);
  ProtocolConfig config = E2eConfig(1, 1, "dist");
  NonVerifiableCurator plain(config.epsilon, config.delta);

  constexpr int kRuns = 25;
  double verifiable_mean = 0;
  double plain_mean = 0;
  for (int run = 0; run < kRuns; ++run) {
    config.session_id = "dist-" + std::to_string(run);
    auto vr = RunHonestProtocol<G>(config, bits, rng);
    EXPECT_TRUE(vr.accepted());
    verifiable_mean += static_cast<double>(vr.raw_histogram[0]);
    plain_mean += static_cast<double>(plain.Release(bits, rng).raw);
  }
  verifiable_mean /= kRuns;
  plain_mean /= kRuns;
  // Both should be ~ 30 + 15.5; allow generous sampling slack (sd ~ 2.8).
  EXPECT_NEAR(verifiable_mean, plain_mean, 4.0);
}

TEST(EndToEndTest2, NoiseDistributionHasBinomialMoments) {
  using G = ModP256;
  SecureRng rng("moments");
  ProtocolConfig config = E2eConfig(1, 1, "moments");
  std::vector<uint32_t> bits(10, 1);
  constexpr int kRuns = 60;
  double sum = 0;
  double sum_sq = 0;
  for (int run = 0; run < kRuns; ++run) {
    config.session_id = "moments-" + std::to_string(run);
    auto result = RunHonestProtocol<G>(config, bits, rng);
    ASSERT_TRUE(result.accepted());
    double noise = static_cast<double>(result.raw_histogram[0]) - 10.0;
    sum += noise;
    sum_sq += noise * noise;
  }
  double mean = sum / kRuns;
  double var = sum_sq / kRuns - mean * mean;
  // Binomial(31, 1/2): mean 15.5 (s.e. ~0.36), var 7.75 (wide tolerance).
  EXPECT_NEAR(mean, 15.5, 2.0);
  EXPECT_NEAR(var, 7.75, 5.0);
}

TEST(EndToEndTest2, LargeScaleRunWithManyClients) {
  using G = ModP256;
  SecureRng rng("large");
  ProtocolConfig config = E2eConfig(2, 1, "large");
  std::vector<uint32_t> bits(300);
  size_t true_count = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    bits[i] = (i % 3 == 0) ? 1 : 0;
    true_count += bits[i];
  }
  ThreadPool pool(2);
  auto result = RunHonestProtocol<G>(config, bits, rng, &pool);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients.size(), 300u);
  EXPECT_NEAR(result.histogram[0], static_cast<double>(true_count), 30.0);
}

TEST(EndToEndTest2, MixedHonestAndMaliciousClientsAndHonestProvers) {
  using G = ModP256;
  ProtocolConfig config = E2eConfig(2, 3, "mixed");
  Pedersen<G> ped;
  SecureRng rng("mixed");
  SecureRng crng = rng.Fork("clients");

  std::vector<ClientBundle<G>> clients;
  size_t honest_count = 0;
  for (size_t i = 0; i < 12; ++i) {
    clients.push_back(MakeClientBundle<G>(static_cast<uint32_t>(i % 3), i, config, ped, crng));
    ++honest_count;
  }
  clients.push_back(MakeDoubleVoteClientBundle<G>(clients.size(), config, ped, crng));
  clients.push_back(MakeNonBitClientBundle<G>(4, clients.size(), config, ped, crng));

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < 2; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  auto result = RunProtocol(config, ped, clients, provers, vrng);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients.size(), honest_count);
}

TEST(EndToEndTest2, ReRunWithSameSeedIsDeterministic) {
  using G = ModP256;
  std::vector<uint32_t> bits = {1, 1, 0, 1};
  auto run = [&] {
    SecureRng rng("determinism");
    return RunHonestProtocol<G>(E2eConfig(1, 1, "det"), bits, rng);
  };
  auto r1 = run();
  auto r2 = run();
  ASSERT_TRUE(r1.accepted());
  ASSERT_TRUE(r2.accepted());
  EXPECT_EQ(r1.raw_histogram[0], r2.raw_histogram[0]);
}

TEST(EndToEndTest2, DifferentSessionsProduceDifferentNoise) {
  using G = ModP256;
  SecureRng rng("sessions");
  std::vector<uint32_t> bits(20, 1);
  auto r1 = RunHonestProtocol<G>(E2eConfig(1, 1, "session-a"), bits, rng);
  auto r2 = RunHonestProtocol<G>(E2eConfig(1, 1, "session-b"), bits, rng);
  ASSERT_TRUE(r1.accepted());
  ASSERT_TRUE(r2.accepted());
  // Coin flip collision is possible but unlikely (Binomial(31) support).
  EXPECT_NE(r1.raw_histogram[0], r2.raw_histogram[0]);
}

}  // namespace
}  // namespace vdp
