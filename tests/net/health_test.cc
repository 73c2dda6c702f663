// HealthRegistry state machine under an adversarial probe corpus: hung
// probes (timeouts), a lying/regressing uptime (restart behind our back), a
// stale epoch digest, and a flapping endpoint -- asserting the state
// transitions and the metric deltas. No sockets: the state machine is
// driven directly through Report*.
#include <gtest/gtest.h>

#include "src/net/health.h"

namespace vdp {
namespace net {
namespace {

wire::WireHealthReply GoodReply(uint64_t uptime_ms, uint64_t server_id = 7) {
  wire::WireHealthReply reply;
  reply.nonce = 1;  // the transport layer already checked the echo
  reply.server_id = server_id;
  reply.uptime_ms = uptime_ms;
  reply.inflight_shards = 2;
  reply.queue_depth = 1;
  return reply;
}

TEST(HealthRegistryTest, FullLifecycleWithMetricDeltas) {
  obs::MetricsRegistry metrics;
  HealthRegistry registry(HealthPolicy{}, &metrics);
  const std::string ep = "tcp:127.0.0.1:7001";
  registry.AddEndpoint(ep);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kHealthy);
  EXPECT_EQ(metrics.Snapshot().CounterValue(obs::kHealthTransitions), 0u);

  // Hung probe #1: healthy -> degraded on the first consecutive failure
  // (degraded_after_failures = 1), i.e. within two probe intervals of the
  // hang starting.
  registry.ReportProbeFailure(ep, "no health reply (timeout)");
  EXPECT_EQ(registry.State(ep), EndpointHealth::kDegraded);

  // Hung probes #2 and #3: degraded -> dead at dead_after_failures = 3.
  registry.ReportProbeFailure(ep, "no health reply (timeout)");
  EXPECT_EQ(registry.State(ep), EndpointHealth::kDegraded);
  registry.ReportProbeFailure(ep, "no health reply (timeout)");
  EXPECT_EQ(registry.State(ep), EndpointHealth::kDead);

  // Back from the dead: one success moves to recovering (still not enough),
  // the second completes recovery.
  registry.ReportProbeSuccess(ep, GoodReply(1000), 150);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kRecovering);
  registry.ReportProbeSuccess(ep, GoodReply(2000), 150);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kHealthy);

  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue(obs::kHealthProbes), 5u);
  EXPECT_EQ(snap.CounterValue(obs::kHealthProbeFailures), 3u);
  // healthy->degraded->dead->recovering->healthy = 4 transitions.
  EXPECT_EQ(snap.CounterValue(obs::kHealthTransitions), 4u);
  EXPECT_EQ(snap.CounterValue(obs::kHealthRestartsSeen), 0u);

  EndpointStatus status = registry.Status(ep);
  EXPECT_EQ(status.transitions, 4u);
  EXPECT_EQ(status.failures, 3u);
  EXPECT_EQ(status.last_uptime_ms, 2000u);
  EXPECT_EQ(status.inflight_shards, 2u);
  EXPECT_TRUE(status.last_error.empty());
}

TEST(HealthRegistryTest, LyingUptimeRegressionIsARestart) {
  obs::MetricsRegistry metrics;
  HealthRegistry registry(HealthPolicy{}, &metrics);
  const std::string ep = "tcp:127.0.0.1:7002";
  registry.AddEndpoint(ep);

  registry.ReportProbeSuccess(ep, GoodReply(60'000), 100);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kHealthy);

  // Uptime goes BACKWARDS: the server restarted (or lies). Either way it
  // lost session state -- it must re-enter through recovering.
  registry.ReportProbeSuccess(ep, GoodReply(500), 100);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kRecovering);
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue(obs::kHealthRestartsSeen), 1u);

  // It recovers by answering steadily with a sane (monotone) uptime.
  registry.ReportProbeSuccess(ep, GoodReply(1500), 100);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kHealthy);
  EndpointStatus status = registry.Status(ep);
  EXPECT_EQ(status.restarts_seen, 1u);
}

TEST(HealthRegistryTest, StaleEpochDigestIsAProbeFailure) {
  obs::MetricsRegistry metrics;
  HealthRegistry registry(HealthPolicy{}, &metrics);
  const std::string ep = "tcp:127.0.0.1:7003";
  registry.AddEndpoint(ep);
  std::array<uint8_t, 32> expected{};
  expected.fill(0xAA);
  registry.SetExpectedDigest(expected);

  // A reply with a zero digest is fine: no session has installed a setup.
  registry.ReportProbeSuccess(ep, GoodReply(1000), 100);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kHealthy);

  // The right digest is fine too.
  wire::WireHealthReply good = GoodReply(2000);
  good.params_digest = expected;
  registry.ReportProbeSuccess(ep, good, 100);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kHealthy);

  // A nonzero digest that differs: alive but on a stale epoch -- judged a
  // probe failure even though the reply MAC-verified.
  wire::WireHealthReply stale = GoodReply(3000);
  stale.params_digest.fill(0xBB);
  registry.ReportProbeSuccess(ep, stale, 100);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kDegraded);
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue(obs::kHealthProbeFailures), 1u);
  EndpointStatus status = registry.Status(ep);
  EXPECT_EQ(status.last_error, "stale params digest");
}

TEST(HealthRegistryTest, FlappingEndpointNeverSettlesHealthyCheaply) {
  obs::MetricsRegistry metrics;
  HealthRegistry registry(HealthPolicy{}, &metrics);
  const std::string ep = "tcp:127.0.0.1:7004";
  registry.AddEndpoint(ep);

  // Flap to dead: fail, succeed, fail, fail, fail...
  registry.ReportProbeFailure(ep, "timeout");  // -> degraded
  registry.ReportProbeSuccess(ep, GoodReply(100), 50);  // -> healthy
  registry.ReportProbeFailure(ep, "timeout");  // -> degraded
  registry.ReportProbeFailure(ep, "timeout");
  registry.ReportProbeFailure(ep, "timeout");  // -> dead
  EXPECT_EQ(registry.State(ep), EndpointHealth::kDead);

  // One success starts recovery; a single failure during recovery drops it
  // straight back to dead -- a flapper cannot oscillate its way to healthy.
  registry.ReportProbeSuccess(ep, GoodReply(200), 50);
  EXPECT_EQ(registry.State(ep), EndpointHealth::kRecovering);
  registry.ReportProbeFailure(ep, "timeout");
  EXPECT_EQ(registry.State(ep), EndpointHealth::kDead);

  // healthy->degraded->healthy->degraded->dead->recovering->dead = 6.
  EXPECT_EQ(metrics.Snapshot().CounterValue(obs::kHealthTransitions), 6u);
}

TEST(HealthRegistryTest, PerStateGaugesTrackThePopulation) {
  obs::MetricsRegistry metrics;
  HealthRegistry registry(HealthPolicy{}, &metrics);
  registry.AddEndpoint("a");
  registry.AddEndpoint("b");
  registry.AddEndpoint("c");

  registry.ReportProbeFailure("b", "timeout");  // degraded
  for (int i = 0; i < 3; ++i) {
    registry.ReportProbeFailure("c", "timeout");  // dead
  }
  auto snap = metrics.Snapshot();
  auto gauge = [&](const char* name) -> int64_t {
    for (const obs::GaugeSnapshot& g : snap.gauges) {
      if (g.name == name) {
        return g.value;
      }
    }
    return -1;
  };
  EXPECT_EQ(gauge(obs::kHealthEndpointsHealthy), 1);
  EXPECT_EQ(gauge(obs::kHealthEndpointsDegraded), 1);
  EXPECT_EQ(gauge(obs::kHealthEndpointsDead), 1);
  EXPECT_EQ(gauge(obs::kHealthEndpointsRecovering), 0);

  registry.ReportProbeSuccess("c", GoodReply(10), 5);
  snap = metrics.Snapshot();
  EXPECT_EQ(gauge(obs::kHealthEndpointsDead), 0);
  EXPECT_EQ(gauge(obs::kHealthEndpointsRecovering), 1);
}

TEST(HealthRegistryTest, UnknownEndpointsReadAsHealthy) {
  HealthRegistry registry;
  EXPECT_EQ(registry.State("never-registered"), EndpointHealth::kHealthy);
  EndpointStatus status = registry.Status("never-registered");
  EXPECT_EQ(status.endpoint, "never-registered");
  EXPECT_EQ(status.probes, 0u);
}

TEST(HealthRegistryTest, RttHistogramRecordsSuccessfulProbes) {
  obs::MetricsRegistry metrics;
  HealthRegistry registry(HealthPolicy{}, &metrics);
  registry.AddEndpoint("a");
  registry.ReportProbeSuccess("a", GoodReply(10), 120);
  registry.ReportProbeSuccess("a", GoodReply(20), 180);
  auto snap = metrics.Snapshot();
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == obs::kHealthProbeRttUs) {
      EXPECT_EQ(h.count, 2u);
      EXPECT_NEAR(h.sum, 300.0, 1e-6);
      return;
    }
  }
  FAIL() << "rtt histogram not registered";
}

}  // namespace
}  // namespace net
}  // namespace vdp
