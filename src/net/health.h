// Fleet health judgement for remote verifiers.
//
// vdp_fleetctl (tools/vdp_fleetctl.cc) probes each verify_server with
// authenticated kHealthProbe frames (net::ProbeSweep, src/net/introspect.h)
// and feeds the outcomes into this registry, which runs a small
// per-endpoint state machine over them:
//
//            failure                 failure x dead_after       probe fails
//   healthy ---------> degraded -------------------------> dead ----------.
//      ^                  |                                  |            |
//      |   success        |                        success   v            |
//      +------------------+          recovering <---------- dead <--------+
//      ^                                  |
//      +----------------------------------+  success x recovered_after
//
// plus one out-of-band edge: a reply whose uptime went *backwards* means
// the server restarted behind our back -- it answers probes fine but has
// lost all session state, so it re-enters through kRecovering and must
// prove itself again (kHealthRestartsSeen counts these).
//
// The registry only judges; it never gates shard dispatch. The fleet
// (src/net/remote_fleet.h) learns about a dead verifier on the data path:
// a lane whose connect ladder fails writes its endpoint off for the rest of
// the stream. Everything here is driven by explicit Report* calls, so the
// state machine is unit-testable without sockets.
#ifndef SRC_NET_HEALTH_H_
#define SRC_NET_HEALTH_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/obs/metrics.h"
#include "src/wire/wire_format.h"

namespace vdp {
namespace net {

enum class EndpointHealth : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kDead = 2,
  kRecovering = 3,
};

const char* EndpointHealthName(EndpointHealth state);

struct HealthPolicy {
  // Consecutive probe failures before healthy -> degraded. The default of 1
  // degrades a hung server on the first probe that times out.
  uint32_t degraded_after_failures = 1;
  // Total consecutive probe failures before -> dead.
  uint32_t dead_after_failures = 3;
  // Consecutive probe successes a recovering endpoint needs before it is
  // trusted as healthy again.
  uint32_t recovered_after_successes = 2;
};

// One endpoint's view, as returned by Status().
struct EndpointStatus {
  std::string endpoint;
  EndpointHealth state = EndpointHealth::kHealthy;
  uint64_t probes = 0;    // probes reported (success + failure)
  uint64_t failures = 0;  // failed probes, lifetime
  uint32_t consecutive_failures = 0;
  uint32_t consecutive_successes = 0;
  uint64_t transitions = 0;     // state changes, lifetime
  uint64_t restarts_seen = 0;   // uptime regressions observed
  uint64_t server_id = 0;       // from the last good reply
  uint64_t last_uptime_ms = 0;  // from the last good reply
  uint64_t last_rtt_us = 0;     // round-trip of the last good probe
  uint64_t inflight_shards = 0;
  uint64_t queue_depth = 0;
  std::string last_error;  // from the last failed probe
};

// Thread-safe registry of endpoint health. Probe outcomes arrive through
// ReportProbeSuccess / ReportProbeFailure (from ProbeSweep or directly
// from tests); State / Status read the judgement back. Counters and the
// per-state population gauges go to `metrics` (the global registry by
// default; tests pass their own to assert deltas).
class HealthRegistry {
 public:
  explicit HealthRegistry(HealthPolicy policy = {},
                          obs::MetricsRegistry* metrics = &obs::MetricsRegistry::Global());

  // Registers an endpoint (idempotent). New endpoints start healthy:
  // pessimism is the probes' job, not registration's.
  void AddEndpoint(const std::string& endpoint);

  // When set, a reply whose params_digest is nonzero but differs from this
  // is counted as a probe failure ("stale epoch"): the server is alive but
  // verifying under parameters this driver no longer trusts.
  void SetExpectedDigest(const std::array<uint8_t, 32>& digest);

  // A probe that got a MAC-verified reply. May still be *judged* a failure
  // (stale digest); uptime regression is judged a restart.
  void ReportProbeSuccess(const std::string& endpoint, const wire::WireHealthReply& reply,
                          uint64_t rtt_us);

  // A probe that got no usable reply (timeout, connect refused, bad MAC...).
  void ReportProbeFailure(const std::string& endpoint, const std::string& reason);

  // Unknown endpoints read as healthy and unprobed: only probe failures
  // ever judge an endpoint unwell.
  EndpointHealth State(const std::string& endpoint) const;
  EndpointStatus Status(const std::string& endpoint) const;

 private:
  // The endpoint's entry, registered on first use. Caller holds mutex_.
  EndpointStatus& EntryLocked(const std::string& endpoint);
  // Applies a judged outcome to an entry; both Report* paths funnel here.
  // Caller holds mutex_.
  void ApplyOutcome(EndpointStatus* entry, bool success, const std::string& reason);
  void TransitionLocked(EndpointStatus* entry, EndpointHealth next);
  void RefreshGaugesLocked();

  HealthPolicy policy_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mutex_;
  std::map<std::string, EndpointStatus> endpoints_;
  bool have_expected_digest_ = false;
  std::array<uint8_t, 32> expected_digest_{};
};

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_HEALTH_H_
