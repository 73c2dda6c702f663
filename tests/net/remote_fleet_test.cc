// The remote verifier fleet over real loopback sockets: spawned
// verify_server daemons, authenticated handshake, shard farm-out, and every
// fleet-failure mode the driver must absorb without the verdict ever
// drifting from the in-process oracle -- dead endpoints, wrong fleet
// secrets, stale setups, dropped connections, hung servers, wrong-shard
// results, and a server SIGKILLed mid-run.
#include <gtest/gtest.h>
#include <signal.h>

#include "src/core/verifier.h"
#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

ProtocolConfig BaseConfig() {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31: keeps upload construction fast
  config.num_provers = 2;
  config.num_bins = 3;
  config.num_verify_shards = 4;
  config.session_id = "remote-fleet-test";
  return config;
}

// Honest uploads plus every rejection class, spread across shards.
std::vector<ClientUploadMsg<G>> Corpus(const ProtocolConfig& config,
                                       const Pedersen<G>& ped) {
  SecureRng rng("remote-fleet-corpus");
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 14; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, ped, rng)
            .upload);
  }
  uploads[2].bin_proofs[0].z0 += S::One();  // invalid OR proof
  uploads[7].commitments.clear();           // malformed shape
  uploads[11].sum_randomness += S::One();   // breaks the one-hot opening
  return uploads;
}

// Small timeouts so failure-path tests stay fast; generous enough for a
// loaded CI box on the happy path.
RemoteFleetOptions FastOptions() {
  RemoteFleetOptions options;
  options.connect_timeout_ms = 5'000;
  options.handshake_timeout_ms = 5'000;
  options.shard_timeout_ms = 10'000;
  options.reconnect_backoff_ms = 10;
  return options;
}

class RemoteFleetTest : public ::testing::Test {
 protected:
  VerifyReport<G> Oracle(const ProtocolConfig& config,
                         const std::vector<ClientUploadMsg<G>>& uploads) {
    ProtocolConfig oracle_config = config;
    oracle_config.remote_verifiers.clear();
    oracle_config.remote_auth_key_hex.clear();
    oracle_config.num_verify_shards = 1;
    return MakeVerifyBackend<G>(VerifyBackendKind::kPerProof, oracle_config, ped_)
        ->VerifyAll(uploads);
  }

  void ExpectMatchesOracle(const ProtocolConfig& config, const VerifyReport<G>& report,
                           const std::vector<ClientUploadMsg<G>>& uploads) {
    VerifyReport<G> expected = Oracle(config, uploads);
    EXPECT_EQ(expected.accepted, report.accepted);
    EXPECT_EQ(expected.rejections, report.rejections);
    ASSERT_EQ(expected.commitment_products.size(), report.commitment_products.size());
    for (size_t k = 0; k < expected.commitment_products.size(); ++k) {
      ASSERT_EQ(expected.commitment_products[k].size(),
                report.commitment_products[k].size());
      for (size_t m = 0; m < expected.commitment_products[k].size(); ++m) {
        EXPECT_TRUE(expected.commitment_products[k][m] == report.commitment_products[k][m])
            << "product mismatch at prover " << k << " bin " << m;
      }
    }
  }

  Pedersen<G> ped_;
};

TEST_F(RemoteFleetTest, LoopbackFleetMatchesOracle) {
  net::LoopbackFleet fleet(2);
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_total, 4u);
  EXPECT_EQ(report.shards_from_remote, 4u);
  EXPECT_EQ(report.shards_recovered_in_process, 0u);
  EXPECT_TRUE(report.failures.empty())
      << "first failure: " << report.failures[0].reason;
  EXPECT_GE(report.connections_established, 1u);
}

TEST_F(RemoteFleetTest, UnixSocketEndpointWorks) {
  // The same daemon and driver over an AF_UNIX endpoint instead of tcp.
  net::LoopbackFleet fleet(0);  // key material only; server spawned below
  net::SpawnServerOptions spawn;
  spawn.listen = "unix:" + ::testing::TempDir() + "vdp-remote-fleet.sock";
  spawn.auth_key_file = fleet.key_file();
  auto server = net::SpawnVerifyServer(spawn);
  ASSERT_TRUE(server.has_value());
  EXPECT_EQ(server->endpoint, spawn.listen);

  ProtocolConfig config = BaseConfig();
  config.remote_verifiers = {server->endpoint};
  config.remote_auth_key_hex = fleet.key_hex();
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();
  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_from_remote, report.shards_total);
  EXPECT_TRUE(report.failures.empty())
      << "first failure: " << report.failures[0].reason;
  net::DestroyServer(&*server);
}

TEST_F(RemoteFleetTest, DeadEndpointRecoversInProcess) {
  ProtocolConfig config = BaseConfig();
  // Nobody listens here (ephemeral port that was never bound).
  config.remote_verifiers = {"tcp:127.0.0.1:1"};
  config.remote_auth_key_hex = std::string(32, 'a');
  auto uploads = Corpus(config, ped_);

  RemoteFleetOptions options = FastOptions();
  options.connect_timeout_ms = 1'000;
  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, options);
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  EXPECT_EQ(report.shards_from_remote, 0u);
  EXPECT_FALSE(report.failures.empty());
}

TEST_F(RemoteFleetTest, WrongFleetSecretIsBlamedAndRecovered) {
  net::LoopbackFleet fleet(1);
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  // The driver holds a different secret than the servers.
  config.remote_auth_key_hex = std::string(64, 'f');
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  // The server dropped us after our setup failed its MAC check -- blame
  // says the ack never arrived.
  EXPECT_NE(report.failures[0].reason.find("no setup ack"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(RemoteFleetTest, StaleSetupDigestIsRejected) {
  net::LoopbackFleet fleet(1, /*fault=*/"staledigest:all");
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].reason.find("digest mismatch"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(RemoteFleetTest, ConnectionDroppedMidShardIsRetriedElsewhere) {
  // Server 0 drops every connection upon receiving a task; server 1 is
  // healthy. Every shard must still complete, remotely or in process.
  net::LoopbackFleet fleet(2, /*fault=*/"close:0");
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_from_remote + report.shards_recovered_in_process,
            report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  bool saw_drop = false;
  for (const RemoteFailure& f : report.failures) {
    if (f.reason.find("no result") != std::string::npos) {
      saw_drop = true;
    }
  }
  EXPECT_TRUE(saw_drop);
}

TEST_F(RemoteFleetTest, HungServerTimesOutAndRecovers) {
  net::LoopbackFleet fleet(1, /*fault=*/"hang:all");
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  config.num_verify_shards = 2;
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  RemoteFleetOptions options = FastOptions();
  options.shard_timeout_ms = 300;
  options.max_attempts_per_shard = 1;
  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, options);
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].reason.find("timeout"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(RemoteFleetTest, WrongShardResultIsRejected) {
  // A server that answers with a well-formed, authentically MACed result
  // for the WRONG shard identity: the result-matches-task check must refuse
  // it -- remote verifiers are trusted with work, not verdict integrity.
  net::LoopbackFleet fleet(1, /*fault=*/"wrongshard:all");
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].reason.find("does not match task"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(RemoteFleetTest, GarbageResultFailsAuthentication) {
  net::LoopbackFleet fleet(1, /*fault=*/"garbage:all");
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].reason.find("authentication failed"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(RemoteFleetTest, KilledServerRecoversOnSurvivors) {
  // Two servers; SIGKILL one before the run. The fleet must finish every
  // shard (survivor or in-process) with the verdict unchanged, and the
  // driver must have re-tried rather than wedged.
  net::LoopbackFleet fleet(2);
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  kill((*fleet.mutable_servers())[0].pid, SIGKILL);

  RemoteFleetOptions options = FastOptions();
  options.connect_timeout_ms = 1'000;
  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, options);
  auto verdict = verifier->VerifyAll(uploads);
  RemoteFleetReport report = verifier->last_fleet_report();

  ExpectMatchesOracle(config, verdict, uploads);
  EXPECT_EQ(report.shards_from_remote + report.shards_recovered_in_process,
            report.shards_total);
  // The surviving server must have carried real work.
  EXPECT_GE(report.shards_from_remote, 1u);
}

TEST_F(RemoteFleetTest, RemoteBackendThroughFactory) {
  net::LoopbackFleet fleet(2);
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  EXPECT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kRemote);
  auto backend = MakeVerifyBackend<G>(config, ped_);
  EXPECT_EQ(backend->name(), "remote");
  auto report = backend->VerifyAll(uploads);
  EXPECT_EQ(report.backend, "remote");
  ExpectMatchesOracle(config, report, uploads);
}

TEST_F(RemoteFleetTest, ValidateRejectsBadRemoteConfigs) {
  ProtocolConfig config = BaseConfig();
  config.remote_verifiers = {"tcp:127.0.0.1:7000"};
  config.remote_auth_key_hex = "";  // missing key
  auto error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "remote_auth_key_hex");

  config.remote_auth_key_hex = "abcd";  // too short
  error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "remote_auth_key_hex");

  config.remote_auth_key_hex = std::string(32, 'a');
  EXPECT_FALSE(config.Validate().has_value());

  config.remote_verifiers.push_back("carrier-pigeon:coop");
  error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "remote_verifiers");
}

}  // namespace
}  // namespace vdp
