// Fleet-event observability regression tests (ISSUE 6 satellite): every
// fault class the loopback fleet can inject must leave the expected marks on
// the canonical counters in src/obs/metrics.h. The conformance suite proves
// faults never change the verdict; this file proves they never go UNSEEN --
// a fleet silently retrying its way to the right answer is an outage the
// run-log must surface.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/core/verifier.h"
#include "src/net/auth.h"
#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/obs/metrics.h"

namespace vdp {
namespace {

using G = ModP256;

ProtocolConfig BaseConfig() {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.num_bins = 3;
  config.num_verify_shards = 4;
  config.session_id = "fleet-metrics-test";
  return config;
}

std::vector<ClientUploadMsg<G>> Corpus(const ProtocolConfig& config,
                                       const Pedersen<G>& ped) {
  SecureRng rng("fleet-metrics-corpus");
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 8; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, ped, rng)
            .upload);
  }
  return uploads;
}

RemoteFleetOptions FastOptions() {
  RemoteFleetOptions options;
  options.connect_timeout_ms = 5'000;
  options.handshake_timeout_ms = 5'000;
  options.shard_timeout_ms = 10'000;
  options.reconnect_backoff_ms = 10;
  return options;
}

class FleetMetricsTest : public ::testing::Test {
 protected:
  // Each test reads counter deltas from a clean slate; the global registry
  // hands out stable pointers, so resetting is safe mid-process.
  void SetUp() override { obs::MetricsRegistry::Global().ResetAll(); }

  uint64_t Count(const char* name) {
    return obs::MetricsRegistry::Global().Snapshot().CounterValue(name);
  }

  Pedersen<G> ped_;
};

TEST_F(FleetMetricsTest, HealthyRunCountsConnectionsAndRemoteShards) {
  net::LoopbackFleet fleet(2);
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  VerifyOptions options;
  options.compute_products = false;
  auto verdict = verifier->VerifyAll(uploads, options);
  RemoteFleetReport report = verifier->last_fleet_report();
  EXPECT_EQ(verdict.accepted.size(), uploads.size());

  EXPECT_GE(Count(obs::kFleetConnections), 1u);
  EXPECT_EQ(Count(obs::kFleetShardsRemote), report.shards_total);
  EXPECT_EQ(Count(obs::kFleetShardsRecovered), 0u);
  EXPECT_EQ(Count(obs::kFleetBlamed), 0u);
  EXPECT_EQ(Count(obs::kFleetRetries), 0u);
  EXPECT_EQ(Count(obs::kAuthFailures), 0u);
  // The wire layer saw real traffic in this process.
  EXPECT_GT(Count(obs::kWireFramesOut), 0u);
  EXPECT_GT(Count(obs::kWireFramesIn), 0u);
  EXPECT_GT(Count(obs::kWireBytesOut), Count(obs::kWireFramesOut));
}

TEST_F(FleetMetricsTest, WrongShardResultsAreRetriedAndBlamed) {
  // Every remote answer is for the wrong shard: each shard burns its remote
  // attempts (attempt >= 1 increments fleet.retries), gets blamed, and lands
  // in the in-process recovery path.
  net::LoopbackFleet fleet(1, /*fault=*/"wrongshard:all");
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  VerifyOptions options;
  options.compute_products = false;
  auto verdict = verifier->VerifyAll(uploads, options);
  RemoteFleetReport report = verifier->last_fleet_report();
  EXPECT_EQ(verdict.accepted.size(), uploads.size());
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);

  EXPECT_EQ(Count(obs::kFleetShardsRecovered), report.shards_total);
  EXPECT_EQ(Count(obs::kFleetShardsRemote), 0u);
  EXPECT_GE(Count(obs::kFleetRetries), 1u);
  EXPECT_GE(Count(obs::kFleetBlamed), report.shards_total);
}

TEST_F(FleetMetricsTest, DroppedConnectionsCountReconnects) {
  // Server 0 hangs up on every task; the driver thread pinned to it must
  // reconnect (a connect after a successful earlier connect) between
  // attempts while server 1 carries on.
  net::LoopbackFleet fleet(2, /*fault=*/"close:0");
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  VerifyOptions options;
  options.compute_products = false;
  auto verdict = verifier->VerifyAll(uploads, options);
  RemoteFleetReport report = verifier->last_fleet_report();
  EXPECT_EQ(verdict.accepted.size(), uploads.size());

  EXPECT_GE(Count(obs::kFleetReconnects), 1u);
  EXPECT_EQ(Count(obs::kFleetReconnects),
            static_cast<uint64_t>(report.reconnects));
  EXPECT_GE(Count(obs::kFleetBlamed), 1u);
  EXPECT_EQ(Count(obs::kFleetShardsRemote) + Count(obs::kFleetShardsRecovered),
            report.shards_total);
}

TEST_F(FleetMetricsTest, GarbageResultsCountAuthFailures) {
  // Authentic-looking frames with corrupt MACs: the receive path must tally
  // auth.failures in THIS process (the driver rejects the frame), alongside
  // the blame entries.
  net::LoopbackFleet fleet(1, /*fault=*/"garbage:all");
  ASSERT_EQ(fleet.servers().size(), 1u);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  auto uploads = Corpus(config, ped_);

  auto verifier = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped_, FastOptions());
  VerifyOptions options;
  options.compute_products = false;
  auto verdict = verifier->VerifyAll(uploads, options);
  RemoteFleetReport report = verifier->last_fleet_report();
  EXPECT_EQ(verdict.accepted.size(), uploads.size());
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);

  EXPECT_GE(Count(obs::kAuthFailures), 1u);
  EXPECT_GE(Count(obs::kFleetBlamed), report.shards_total);
  EXPECT_EQ(Count(obs::kFleetShardsRecovered), report.shards_total);
}

TEST_F(FleetMetricsTest, AuthChannelTamperingIncrementsTheCounter) {
  // The counter fires at the AuthChannel layer itself, not only through the
  // fleet driver: a tampered frame on a raw socketpair is enough.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::SessionKey key =
      net::DeriveSessionKey(Bytes(32, 0x44), Bytes(32, 0x55), Bytes(32, 0x66));
  net::AuthChannel client(fds[0], key, /*is_client=*/true);
  net::AuthChannel server(fds[1], key, /*is_client=*/false);

  Bytes payload = {1, 2, 3};
  Bytes sealed =
      net::SealPayload(key, net::kClientToServer, 0, wire::FrameType::kTask, payload);
  sealed[0] ^= 0x01;
  ASSERT_EQ(wire::WriteFrame(fds[0], wire::FrameType::kTask, sealed),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
  EXPECT_EQ(Count(obs::kAuthFailures), 1u);

  // A clean frame afterwards leaves the tally where it was.
  ASSERT_EQ(client.Write(wire::FrameType::kTask, payload), wire::WriteStatus::kOk);
  EXPECT_EQ(server.Read(&frame, 1000), wire::ReadStatus::kOk);
  EXPECT_EQ(Count(obs::kAuthFailures), 1u);

  close(fds[0]);
  close(fds[1]);
}

}  // namespace
}  // namespace vdp
