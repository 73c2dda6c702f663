// The local verify_server fleet behind ProtocolConfig::verify_workers, and a
// verify_server session driven by hand.
//
// verify_workers = N makes the remote backend spawn N loopback servers. Its
// combined verdict must be bit-identical to the in-process sharded pipeline
// in every fleet condition -- healthy, one server crashing mid-shard, every
// server crashing, and a fleet that cannot be spawned at all -- and failures
// must be blamed (which endpoint, which shard, how it ended) without
// perturbing the verdict. Faults reach the spawned servers through
// $VDP_SERVER_FAULT, which they inherit.
//
// A hand-driven session pins the daemon's task protocol: a task for another
// setup is refused, a well-formed task is answered bit-identically to
// VerifyShard, and a frame from a future wire version ends the session
// without taking the server down.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>

#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

// Scoped environment variable; spawned servers inherit it through
// fork/exec.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name_, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

ProtocolConfig PoolConfig(size_t shards) {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31: keeps upload construction fast
  config.num_provers = 1;
  config.num_bins = 1;
  config.session_id = "spawned-fleet-test";
  config.batch_verify = true;
  config.num_verify_shards = shards;
  return config;
}

std::vector<ClientUploadMsg<G>> MakeUploads(const ProtocolConfig& config,
                                            const Pedersen<G>& ped, size_t n) {
  SecureRng rng("spawned-fleet-uploads");
  std::vector<ClientUploadMsg<G>> uploads;
  uploads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % 2), i, config, ped, rng).upload);
  }
  // A rejection partway through the stream: the verdicts must agree on
  // rejections and their reasons too, not just on the happy path.
  uploads[n / 3].bin_proofs[0].z0 += S::One();
  return uploads;
}

void ExpectSameVerdict(const VerifyReport<G>& expected, const VerifyReport<G>& actual) {
  EXPECT_EQ(expected.accepted, actual.accepted);
  EXPECT_EQ(expected.rejections, actual.rejections);
  EXPECT_EQ(expected.total_uploads, actual.total_uploads);
  ASSERT_EQ(expected.commitment_products.size(), actual.commitment_products.size());
  for (size_t k = 0; k < expected.commitment_products.size(); ++k) {
    ASSERT_EQ(expected.commitment_products[k].size(), actual.commitment_products[k].size());
    for (size_t m = 0; m < expected.commitment_products[k].size(); ++m) {
      EXPECT_TRUE(expected.commitment_products[k][m] == actual.commitment_products[k][m])
          << "commitment product mismatch at prover " << k << " bin " << m;
    }
  }
}

void ExpectSameShard(const ShardResult<G>& expected, const ShardResult<G>& actual) {
  EXPECT_EQ(expected.shard_index, actual.shard_index);
  EXPECT_EQ(expected.accepted, actual.accepted);
  EXPECT_EQ(expected.rejections, actual.rejections);
  ASSERT_EQ(expected.partial_products.size(), actual.partial_products.size());
  for (size_t k = 0; k < expected.partial_products.size(); ++k) {
    ASSERT_EQ(expected.partial_products[k].size(), actual.partial_products[k].size());
    for (size_t m = 0; m < expected.partial_products[k].size(); ++m) {
      EXPECT_TRUE(expected.partial_products[k][m] == actual.partial_products[k][m]);
    }
  }
}

// A dispatcher-style shard viewing uploads[base, base + count).
ShardPayload<G> Slice(const std::vector<ClientUploadMsg<G>>& uploads, size_t shard_index,
                      size_t base, size_t count) {
  ShardPayload<G> shard;
  shard.shard_index = shard_index;
  shard.base = base;
  shard.view = uploads.data() + base;
  shard.view_count = count;
  return shard;
}

class SpawnedFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = PoolConfig(/*shards=*/4);
    uploads_ = MakeUploads(config_, ped_, 64);
    expected_ = MakeVerifyBackend<G>(VerifyBackendKind::kSharded, config_, ped_)
                    ->VerifyAll(uploads_);
    config_.verify_workers = 2;
    ASSERT_EQ(SelectVerifyBackend(config_), VerifyBackendKind::kRemote);
  }

  // One one-shot run on a fresh backend, which spawns (and on return tears
  // down) its own verify_workers fleet.
  VerifyReport<G> RunFleet(RemoteFleetReport* report, bool compute_products = true) {
    RemoteBackend<G> backend(config_, ped_);
    VerifyOptions options;
    options.compute_products = compute_products;
    VerifyReport<G> verdict = backend.VerifyAll(uploads_, options);
    EXPECT_EQ(verdict.backend, "remote");
    *report = backend.last_fleet_report();
    return verdict;
  }

  ProtocolConfig config_;
  Pedersen<G> ped_;
  std::vector<ClientUploadMsg<G>> uploads_;
  VerifyReport<G> expected_;
};

TEST_F(SpawnedFleetTest, HealthyFleetMatchesInProcess) {
  RemoteFleetReport report;
  auto verdict = RunFleet(&report);
  ExpectSameVerdict(expected_, verdict);
  EXPECT_TRUE(report.failures.empty()) << "first failure: " << report.failures[0].reason;
  EXPECT_EQ(report.shards_total, 4u);
  EXPECT_EQ(report.shards_from_remote, report.shards_total);
  EXPECT_EQ(report.shards_recovered_in_process, 0u);
  EXPECT_GE(report.connections_established, 1u);
}

TEST_F(SpawnedFleetTest, CrashedServerIsBlamedAndShardRecovered) {
  // Server 0 exits on every task it receives. Each lane is driven directly
  // so the crash is certain to be hit: lane 0's shard is blamed and
  // recovered, lane 1's is served remotely.
  net::LoopbackFleet fleet(2, /*fault=*/"crash:0");
  ASSERT_EQ(fleet.servers().size(), 2u);
  ProtocolConfig config = PoolConfig(/*shards=*/2);
  fleet.ApplyTo(&config);
  RemoteVerifierFleet<G> verifier(config, ped_);
  verifier.BeginStream(nullptr, {});
  auto crashed = verifier.ExecuteShard(0, Slice(uploads_, 0, 0, 32));
  auto healthy = verifier.ExecuteShard(1, Slice(uploads_, 1, 32, 32));
  verifier.CloseLane(0);
  verifier.CloseLane(1);
  ExpectSameShard(VerifyShard(config, ped_, uploads_.data(), 32, 0, 0), crashed);
  ExpectSameShard(VerifyShard(config, ped_, uploads_.data() + 32, 32, 32, 1), healthy);

  RemoteFleetReport report = verifier.TakeReport();
  EXPECT_EQ(report.shards_from_remote, 1u);
  EXPECT_EQ(report.shards_recovered_in_process, 1u);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures[0].shard_index, 0u);
  EXPECT_EQ(report.failures[0].endpoint, fleet.servers()[0].endpoint);
  EXPECT_NE(report.failures[0].reason.find("no result"), std::string::npos)
      << report.failures[0].reason;

  // The same fault through verify_workers: whichever lanes meet the dead
  // server, the verdict is the in-process one.
  ScopedEnv fault("VDP_SERVER_FAULT", "crash:0");
  RemoteFleetReport spawned;
  ExpectSameVerdict(expected_, RunFleet(&spawned));
  EXPECT_EQ(spawned.shards_from_remote + spawned.shards_recovered_in_process,
            spawned.shards_total);
}

TEST_F(SpawnedFleetTest, FullyBrokenFleetRecoversInProcess) {
  // Every spawned server exits on its first task: after the retries and the
  // reconnect ladder the driver verifies each shard locally, so the verdict
  // survives a fleet that cannot verify anything.
  ScopedEnv fault("VDP_SERVER_FAULT", "crash:all");
  RemoteFleetReport report;
  auto verdict = RunFleet(&report);
  ExpectSameVerdict(expected_, verdict);
  EXPECT_EQ(report.shards_from_remote, 0u);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].reason.find("no result"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(SpawnedFleetTest, MissingServerBinaryRecoversInProcess) {
  // No server can be spawned, so the fleet has no endpoint at all: every
  // shard is blamed and recovered in process, and counted as recovered.
  ScopedEnv path("VDP_VERIFY_SERVER_PATH", "/nonexistent/verify_server");
  const uint64_t recovered_before =
      obs::GlobalCounter(obs::kFleetShardsRecovered)->value();
  RemoteFleetReport report;
  auto verdict = RunFleet(&report);
  ExpectSameVerdict(expected_, verdict);
  EXPECT_EQ(report.shards_total, 4u);
  EXPECT_EQ(report.shards_from_remote, 0u);
  EXPECT_EQ(report.shards_recovered_in_process, report.shards_total);
  EXPECT_EQ(obs::GlobalCounter(obs::kFleetShardsRecovered)->value() - recovered_before,
            report.shards_total);
  ASSERT_EQ(report.failures.size(), report.shards_total);
  EXPECT_NE(report.failures[0].reason.find("no remote endpoints"), std::string::npos)
      << report.failures[0].reason;
}

TEST_F(SpawnedFleetTest, ProductsSkippedWhenNotRequested) {
  RemoteFleetReport report;
  auto verdict = RunFleet(&report, /*compute_products=*/false);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(verdict.accepted, expected_.accepted);
  EXPECT_EQ(verdict.rejections, expected_.rejections);
  // No products were computed: the report carries none at all.
  EXPECT_FALSE(verdict.has_products());
}

// --- A verify_server session driven by hand ------------------------------

class ServerSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(fleet_.servers().size(), 1u);
    config_ = PoolConfig(/*shards=*/1);
    setup_ = wire::MakeWireSetup(config_, ped_);
    conn_ = Connect();
    ASSERT_TRUE(conn_.ok()) << blame_;
  }

  void TearDown() override { net::CloseRemoteConn(&conn_); }

  net::RemoteConn Connect() {
    auto endpoint = net::ParseEndpoint(fleet_.servers()[0].endpoint);
    EXPECT_TRUE(endpoint.has_value());
    auto key = HexDecode(fleet_.key_hex());
    EXPECT_TRUE(key.has_value());
    return net::ConnectAndHandshake(*endpoint, *key, setup_.Serialize(), setup_.Digest(),
                                    net::HandshakeOptions{}, &blame_);
  }

  net::LoopbackFleet fleet_{1};
  ProtocolConfig config_;
  Pedersen<G> ped_;
  wire::WireSetup setup_;
  net::RemoteConn conn_;
  std::string blame_;
};

TEST_F(ServerSessionTest, RefusesTaskWithMismatchedParamsDigest) {
  wire::WireShardTask task;
  task.params_digest.fill(0xEE);  // not the setup digest
  ASSERT_EQ(conn_.channel.Write(wire::FrameType::kTask, task.Serialize(), 15'000),
            wire::WriteStatus::kOk);
  wire::Frame response;
  ASSERT_EQ(conn_.channel.Read(&response, 15'000), wire::ReadStatus::kOk);
  ASSERT_EQ(response.type, wire::FrameType::kError);
  auto error = wire::WireError::Deserialize(response.payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->message.find("digest"), std::string::npos) << error->message;
}

TEST_F(ServerSessionTest, AnswersWellFormedTaskBitIdentically) {
  auto uploads = MakeUploads(config_, ped_, 8);
  wire::WireShardTask task = wire::MakeShardTask<G>(
      setup_.Digest(), /*shard_index=*/0, /*base=*/0, /*compute_products=*/true,
      uploads.data(), uploads.size());
  ASSERT_EQ(conn_.channel.Write(wire::FrameType::kTask, task.Serialize(), 15'000),
            wire::WriteStatus::kOk);
  wire::Frame response;
  ASSERT_EQ(conn_.channel.Read(&response, 60'000), wire::ReadStatus::kOk);
  ASSERT_EQ(response.type, wire::FrameType::kResult);
  auto wire_result = wire::WireShardResult::Deserialize(response.payload);
  ASSERT_TRUE(wire_result.has_value());
  auto result = wire::ResultFromWire<G>(config_, *wire_result);
  ASSERT_TRUE(result.has_value());
  ExpectSameShard(VerifyShard(config_, ped_, uploads.data(), uploads.size(), 0, 0), *result);
}

TEST_F(ServerSessionTest, RefusesFutureWireVersionCleanly) {
  // Hand-build a frame claiming wire version kWireVersion + 1 in the task
  // slot: the server must end the session without answering -- and stay up
  // for the next driver. (Header only, so the server consumes every byte we
  // sent and its close arrives as a clean EOF rather than a reset.)
  Bytes frame = wire::EncodeFrame(wire::FrameType::kTask, Bytes());
  frame[4] = wire::kWireVersion + 1;  // version byte follows the 4-byte magic
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = write(conn_.fd, frame.data() + written, frame.size() - written);
    ASSERT_GT(n, 0);
    written += static_cast<size_t>(n);
  }
  wire::Frame response;
  EXPECT_EQ(conn_.channel.Read(&response, 15'000), wire::ReadStatus::kEof);

  net::RemoteConn next = Connect();
  EXPECT_TRUE(next.ok()) << blame_;
  net::CloseRemoteConn(&next);
}

}  // namespace
}  // namespace vdp
