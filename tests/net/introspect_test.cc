// The live introspection plane end to end over real loopback servers:
// authenticated health probes and stats dumps against verify_server, the
// hang fault degrading through the registry, the probe sweep's endpoint
// order, the vdp.stats/v1 JSON round-trip, and the Prometheus renderer.
#include <gtest/gtest.h>

#include "src/common/hex.h"
#include "src/net/introspect.h"
#include "src/net/server_process.h"

namespace vdp {
namespace net {
namespace {

Bytes FleetKey(const LoopbackFleet& fleet) {
  auto key = HexDecode(fleet.key_hex());
  return key.has_value() ? *key : Bytes{};
}

TEST(IntrospectTest, ProbeAnswersWithLivenessSnapshot) {
  LoopbackFleet fleet(1);
  ASSERT_EQ(fleet.servers().size(), 1u);
  Bytes key = FleetKey(fleet);
  auto endpoint = ParseEndpoint(fleet.servers()[0].endpoint);
  ASSERT_TRUE(endpoint.has_value());

  ProbeOutcome outcome =
      ProbeEndpoint(*endpoint, BytesView(key.data(), key.size()), 5000);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.reply.server_id, 0u);
  // A fresh server has served no session: all-zero digest, nothing inflight.
  EXPECT_EQ(outcome.reply.params_digest, (std::array<uint8_t, 32>{}));
  EXPECT_EQ(outcome.reply.inflight_shards, 0u);
  EXPECT_EQ(outcome.reply.queue_depth, 0u);

  // Probing again: uptime is monotone across probes.
  ProbeOutcome again =
      ProbeEndpoint(*endpoint, BytesView(key.data(), key.size()), 5000);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_GE(again.reply.uptime_ms, outcome.reply.uptime_ms);
}

TEST(IntrospectTest, WrongFleetSecretGetsNoAnswer) {
  LoopbackFleet fleet(1);
  ASSERT_EQ(fleet.servers().size(), 1u);
  Bytes wrong(32, 0x5C);
  auto endpoint = ParseEndpoint(fleet.servers()[0].endpoint);
  ASSERT_TRUE(endpoint.has_value());
  ProbeOutcome outcome =
      ProbeEndpoint(*endpoint, BytesView(wrong.data(), wrong.size()), 3000);
  EXPECT_FALSE(outcome.ok);  // server drops us at the first bad MAC
}

TEST(IntrospectTest, StatsReplyIsSchemaStampedAndRoundTrips) {
  LoopbackFleet fleet(1);
  ASSERT_EQ(fleet.servers().size(), 1u);
  Bytes key = FleetKey(fleet);
  auto endpoint = ParseEndpoint(fleet.servers()[0].endpoint);
  ASSERT_TRUE(endpoint.has_value());

  StatsResult result =
      FetchStats(*endpoint, BytesView(key.data(), key.size()), 5000, true);
  ASSERT_TRUE(result.ok) << result.error;
  auto parsed = obs::ParseJson(result.reply.stats_json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->StringOr("schema", ""), kStatsSchema);
  auto snapshot = SnapshotFromJson(*parsed);
  ASSERT_TRUE(snapshot.has_value());
  // The server's own admin counter is visible in its dump. The server counts
  // a stats request before it snapshots the registry, so a later fetch, even
  // on a new connection, sees at least the first request.
  StatsResult second =
      FetchStats(*endpoint, BytesView(key.data(), key.size()), 5000, false);
  ASSERT_TRUE(second.ok) << second.error;
  auto second_parsed = obs::ParseJson(second.reply.stats_json);
  ASSERT_TRUE(second_parsed.has_value());
  auto second_snapshot = SnapshotFromJson(*second_parsed);
  ASSERT_TRUE(second_snapshot.has_value());
  EXPECT_GE(second_snapshot->CounterValue(obs::kAdminStatsServed), 1u);
}

TEST(IntrospectTest, HungServerDegradesThroughTheRegistry) {
  // One healthy server, one that hangs on every admin frame. The registry,
  // fed by real probe sweeps with a short timeout, must degrade the hung
  // one on the first sweep while the healthy one stays healthy.
  LoopbackFleet healthy(1);
  ASSERT_EQ(healthy.servers().size(), 1u);
  net::SpawnServerOptions spawn;
  spawn.auth_key_file = healthy.key_file();
  spawn.server_id = 1;
  spawn.fault = "hang:1";
  auto hung = SpawnVerifyServer(spawn);
  ASSERT_TRUE(hung.has_value());

  Bytes key = FleetKey(healthy);
  constexpr int kTimeoutMs = 500;  // a hung probe costs half a second
  HealthRegistry registry;
  const std::vector<std::string> endpoints = {healthy.servers()[0].endpoint,
                                              hung->endpoint};
  for (int round = 0; round < 3; ++round) {
    ProbeSweep(&registry, endpoints, key, kTimeoutMs);
    if (round == 0) {
      // Degraded after ONE hung probe.
      EXPECT_EQ(registry.State(hung->endpoint), EndpointHealth::kDegraded);
    }
  }
  EXPECT_EQ(registry.State(healthy.servers()[0].endpoint), EndpointHealth::kHealthy);
  // Three hung probes: dead.
  EXPECT_EQ(registry.State(hung->endpoint), EndpointHealth::kDead);
  DestroyServer(&*hung);
}

TEST(IntrospectTest, ProbeSweepReportsInEndpointOrder) {
  // Statuses come back in the caller's order, not the registry's name
  // order: the live endpoint is listed before names that sort ahead of it
  // (nobody listens on port 1; "bogus" does not parse).
  LoopbackFleet fleet(1);
  ASSERT_EQ(fleet.servers().size(), 1u);
  const std::string live = fleet.servers()[0].endpoint;
  const std::vector<std::string> endpoints = {live, "tcp:127.0.0.1:1", "bogus"};
  ASSERT_GT(endpoints[0], endpoints[1]);
  ASSERT_GT(endpoints[1], endpoints[2]);

  HealthRegistry registry;
  std::vector<EndpointStatus> statuses =
      ProbeSweep(&registry, endpoints, FleetKey(fleet), 2000);
  ASSERT_EQ(statuses.size(), endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    EXPECT_EQ(statuses[i].endpoint, endpoints[i]);
    EXPECT_EQ(statuses[i].probes, 1u);
  }
  EXPECT_EQ(statuses[0].state, EndpointHealth::kHealthy);
  EXPECT_EQ(statuses[1].state, EndpointHealth::kDegraded);
  EXPECT_EQ(statuses[2].state, EndpointHealth::kDegraded);
  EXPECT_EQ(statuses[2].last_error, "unparseable endpoint");
}

TEST(IntrospectTest, SnapshotJsonRoundTripsAndRejectsMalformed) {
  obs::MetricsRegistry registry;
  registry.GetCounter("fleet.retries")->Add(3);
  registry.GetGauge("stream.inflight_shards")->Set(2);
  obs::Histogram* h = registry.GetHistogram("verify.shard_ms", {1.0, 10.0, 100.0});
  h->Record(5.0);
  h->Record(50.0);
  obs::MetricsSnapshot snapshot = registry.Snapshot();

  std::string json = StatsToJson(snapshot, {});
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->StringOr("schema", ""), kStatsSchema);
  auto back = SnapshotFromJson(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->CounterValue("fleet.retries"), 3u);
  ASSERT_EQ(back->gauges.size(), 1u);
  EXPECT_EQ(back->gauges[0].value, 2);
  ASSERT_EQ(back->histograms.size(), 1u);
  EXPECT_EQ(back->histograms[0].count, 2u);
  EXPECT_EQ(back->histograms[0].counts.size(), back->histograms[0].bounds.size() + 1);
  // Percentiles recompute identically from the round-tripped buckets.
  EXPECT_DOUBLE_EQ(back->histograms[0].P50(), snapshot.histograms[0].P50());

  // Malformed shapes are rejected, not misread.
  EXPECT_FALSE(SnapshotFromJson(obs::JsonValue::Array()).has_value());
  auto missing = obs::ParseJson(R"({"counters":{}})");
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(SnapshotFromJson(*missing).has_value());
  auto bad_counts = obs::ParseJson(
      R"({"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[1],"count":1,"sum":1}}})");
  ASSERT_TRUE(bad_counts.has_value());
  EXPECT_FALSE(SnapshotFromJson(*bad_counts).has_value());  // counts != bounds+1
}

TEST(IntrospectTest, PrometheusExpositionShape) {
  obs::MetricsRegistry registry;
  registry.GetCounter("health.probes")->Add(7);
  registry.GetGauge("health.endpoints_dead")->Set(1);
  obs::Histogram* h = registry.GetHistogram("health.probe_rtt_us", {10.0, 100.0});
  h->Record(5.0);
  h->Record(50.0);
  h->Record(5000.0);

  std::string text = RenderPrometheus(registry.Snapshot(), "endpoint=\"tcp:h:1\"");
  EXPECT_NE(text.find("# TYPE vdp_health_probes_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("vdp_health_probes_total{endpoint=\"tcp:h:1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("vdp_health_endpoints_dead{endpoint=\"tcp:h:1\"} 1\n"),
            std::string::npos);
  // Cumulative buckets: 1 at le=10, 2 at le=100, 3 at +Inf == _count.
  EXPECT_NE(text.find("vdp_health_probe_rtt_us_bucket{endpoint=\"tcp:h:1\",le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("vdp_health_probe_rtt_us_bucket{endpoint=\"tcp:h:1\",le=\"100\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("vdp_health_probe_rtt_us_bucket{endpoint=\"tcp:h:1\",le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("vdp_health_probe_rtt_us_count{endpoint=\"tcp:h:1\"} 3\n"),
            std::string::npos);

  // No labels: bare sample names, no empty brace pair.
  std::string bare = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(bare.find("vdp_health_probes_total 7\n"), std::string::npos);
  EXPECT_EQ(bare.find("{}"), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace vdp
