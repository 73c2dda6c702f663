// Blame by bisection at the upload level: every path that runs VerifyShard
// -- the shard itself, the sharded backend, a loopback verify_server fleet
// and the auditor -- must reach the per-proof oracle's accepted set,
// rejection reasons and commitment products on every adversarial placement
// of forged uploads, on a mod-p and a curve group, with and without a pool.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/audit.h"
#include "src/net/server_process.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

// What is done to one upload.
enum class Tamper {
  kResponse,   // a bin proof's z0: the RLC fails, the split holds
  kSplit,      // a bin proof's e1: the split fails
  kMalformed,  // no commitments: fails the structural pass
};

struct Forgery {
  size_t upload;
  Tamper how;
  size_t bin = 0;
};

struct Scenario {
  std::string name;
  size_t uploads;
  std::vector<Forgery> forgeries;
  size_t bins = 1;
};

ProtocolConfig ConfigFor(size_t bins) {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31: keeps upload construction fast
  config.num_provers = bins > 1 ? 2 : 1;
  config.num_bins = bins;
  config.session_id = "bisect-blame-" + std::to_string(bins);
  config.batch_verify = true;
  config.num_verify_shards = 1;
  return config;
}

std::vector<Forgery> Each(size_t n, Tamper how) {
  std::vector<Forgery> all;
  for (size_t i = 0; i < n; ++i) {
    all.push_back({i, how});
  }
  return all;
}

// Every placement the search treats differently, on shards of 32 single-bin
// uploads (32 proofs: halves of 16, leaves of 4) unless stated.
std::vector<Scenario> Scenarios() {
  return {
      {"first", 32, {{0, Tamper::kResponse}}},
      {"last", 32, {{31, Tamper::kResponse}}},
      {"left-of-split", 32, {{15, Tamper::kResponse}}},
      {"right-of-split", 32, {{16, Tamper::kResponse}}},
      {"sibling-halves", 32, {{15, Tamper::kResponse}, {16, Tamper::kResponse}}},
      {"one-leaf", 32, {{8, Tamper::kResponse}, {9, Tamper::kResponse}}},
      {"all-forged", 32, Each(32, Tamper::kResponse)},
      {"mixed",
       32,
       {{2, Tamper::kSplit},
        {3, Tamper::kResponse},
        {4, Tamper::kMalformed},
        {20, Tamper::kResponse},
        {21, Tamper::kMalformed},
        {31, Tamper::kSplit}}},
      {"odd", 23, {{11, Tamper::kResponse}}},
      {"single", 1, {{0, Tamper::kResponse}}},
      {"three-bins-one-bad-bin", 16, {{7, Tamper::kResponse, 2}}, 3},
  };
}

template <PrimeOrderGroup G>
std::vector<ClientBundle<G>> MakeBundles(const ProtocolConfig& config, const Pedersen<G>& ped,
                                         const Scenario& scenario) {
  using S = typename G::Scalar;
  SecureRng rng("bisect-blame/" + scenario.name);
  std::vector<ClientBundle<G>> bundles;
  for (size_t i = 0; i < scenario.uploads; ++i) {
    const size_t choice = config.num_bins == 1 ? i % 2 : i % config.num_bins;
    bundles.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(choice), i, config, ped, rng));
  }
  for (const Forgery& f : scenario.forgeries) {
    ClientUploadMsg<G>& upload = bundles[f.upload].upload;
    switch (f.how) {
      case Tamper::kResponse:
        upload.bin_proofs[f.bin].z0 += S::One();
        break;
      case Tamper::kSplit:
        upload.bin_proofs[f.bin].e1 += S::One();
        break;
      case Tamper::kMalformed:
        upload.commitments.clear();
        break;
    }
  }
  return bundles;
}

template <PrimeOrderGroup G>
std::vector<ClientUploadMsg<G>> Uploads(const std::vector<ClientBundle<G>>& bundles) {
  std::vector<ClientUploadMsg<G>> uploads;
  for (const ClientBundle<G>& b : bundles) {
    uploads.push_back(b.upload);
  }
  return uploads;
}

template <PrimeOrderGroup G>
void ExpectSameDecisions(const VerifyReport<G>& expected, const VerifyReport<G>& actual) {
  EXPECT_EQ(expected.accepted, actual.accepted);
  EXPECT_EQ(expected.rejections, actual.rejections);
  EXPECT_EQ(expected.RenderedReasons(), actual.RenderedReasons());
  ASSERT_EQ(expected.commitment_products.size(), actual.commitment_products.size());
  for (size_t k = 0; k < expected.commitment_products.size(); ++k) {
    ASSERT_EQ(expected.commitment_products[k].size(), actual.commitment_products[k].size());
    for (size_t m = 0; m < expected.commitment_products[k].size(); ++m) {
      EXPECT_TRUE(expected.commitment_products[k][m] == actual.commitment_products[k][m])
          << "product mismatch at prover " << k << " bin " << m;
    }
  }
}

template <PrimeOrderGroup G>
VerifyReport<G> Oracle(const ProtocolConfig& config, const Pedersen<G>& ped,
                       const std::vector<ClientUploadMsg<G>>& uploads) {
  return MakeVerifyBackend<G>(VerifyBackendKind::kPerProof, config, ped)->VerifyAll(uploads);
}

template <typename G>
class BisectBlameTest : public ::testing::Test {
 protected:
  Pedersen<G> ped_;
};

using Groups = ::testing::Types<ModP256, Ed25519Group>;
TYPED_TEST_SUITE(BisectBlameTest, Groups);

// One shard holding the whole stream, and the sharded backend cutting it in
// two, serially and on a pool.
TYPED_TEST(BisectBlameTest, ShardAndShardedBackendMatchOracle) {
  using G = TypeParam;
  ThreadPool pool(3);
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE(scenario.name);
    ProtocolConfig config = ConfigFor(scenario.bins);
    const auto uploads = Uploads(MakeBundles(config, this->ped_, scenario));
    const VerifyReport<G> expected = Oracle(config, this->ped_, uploads);
    ASSERT_EQ(expected.rejections.size() > 0, !scenario.forgeries.empty());

    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ShardResult<G> shard =
          VerifyShard(config, this->ped_, uploads.data(), uploads.size(), 0, 0, p);
      EXPECT_EQ(shard.accepted, expected.accepted);
      ASSERT_EQ(shard.rejections.size(), expected.rejections.size());
      for (size_t r = 0; r < shard.rejections.size(); ++r) {
        EXPECT_EQ(shard.rejections[r].first, expected.rejections[r].index);
        EXPECT_EQ(shard.rejections[r].second, expected.rejections[r].detail);
      }
      EXPECT_TRUE(shard.partial_products == expected.commitment_products);
      EXPECT_TRUE(shard.fallback_used);

      config.num_verify_shards = 2;
      VerifyOptions options;
      options.pool = p;
      const VerifyReport<G> sharded =
          MakeVerifyBackend<G>(VerifyBackendKind::kSharded, config, this->ped_)
              ->VerifyAll(uploads, options);
      ExpectSameDecisions(expected, sharded);
      config.num_verify_shards = 1;
    }
  }
}

// The verify_server daemons run the same search: a loopback two-server
// fleet, every shard served remotely.
TYPED_TEST(BisectBlameTest, SpawnedFleetMatchesOracle) {
  using G = TypeParam;
  net::LoopbackFleet servers(2);
  ASSERT_EQ(servers.servers().size(), 2u);
  for (size_t bins : {size_t{1}, size_t{3}}) {
    ProtocolConfig config = ConfigFor(bins);
    config.num_verify_shards = 2;
    servers.ApplyTo(&config);
    auto fleet = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, this->ped_);
    for (const Scenario& scenario : Scenarios()) {
      if (scenario.bins != bins) {
        continue;
      }
      SCOPED_TRACE(scenario.name);
      const auto uploads = Uploads(MakeBundles(config, this->ped_, scenario));
      const VerifyReport<G> report = fleet->VerifyAll(uploads);
      ExpectSameDecisions(Oracle(config, this->ped_, uploads), report);
      EXPECT_EQ(fleet->last_fleet_report().shards_from_remote,
                fleet->last_fleet_report().shards_total);
      EXPECT_TRUE(fleet->last_fleet_report().failures.empty());
    }
  }
}

// A bystander auditing a published round with forged clients blames the
// same clients, and the round still verifies.
TYPED_TEST(BisectBlameTest, AuditorMatchesOracle) {
  using G = TypeParam;
  for (const Scenario& scenario : Scenarios()) {
    if (scenario.name != "mixed" && scenario.name != "three-bins-one-bad-bin") {
      continue;
    }
    SCOPED_TRACE(scenario.name);
    ProtocolConfig config = ConfigFor(scenario.bins);
    config.num_verify_shards = 2;
    const std::vector<ClientBundle<G>> bundles = MakeBundles(config, this->ped_, scenario);
    SecureRng rng("bisect-blame-audit/" + scenario.name);
    std::vector<std::unique_ptr<Prover<G>>> owned;
    std::vector<Prover<G>*> provers;
    for (size_t k = 0; k < config.num_provers; ++k) {
      owned.push_back(std::make_unique<Prover<G>>(k, config, this->ped_,
                                                  rng.Fork("p" + std::to_string(k))));
      provers.push_back(owned.back().get());
    }
    SecureRng vrng = rng.Fork("verifier");
    PublicTranscript<G> transcript;
    const ProtocolResult result =
        RunProtocol(config, this->ped_, bundles, provers, vrng, nullptr, &transcript);
    ASSERT_TRUE(result.accepted());

    const VerifyReport<G> expected = Oracle(config, this->ped_, Uploads(bundles));
    ThreadPool pool(2);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const AuditReport audit = AuditTranscript(transcript, config, this->ped_, p);
      EXPECT_TRUE(audit.accepted());
      EXPECT_EQ(audit.accepted_clients, expected.accepted);
      EXPECT_EQ(audit.raw_histogram, result.raw_histogram);
    }
  }
}

}  // namespace
}  // namespace vdp
