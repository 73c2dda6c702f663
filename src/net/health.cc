#include "src/net/health.h"

#include "src/common/bytes.h"

namespace vdp {
namespace net {

namespace {

bool AllZero(const std::array<uint8_t, 32>& digest) {
  uint8_t acc = 0;
  for (uint8_t b : digest) {
    acc |= b;
  }
  return acc == 0;
}

}  // namespace

const char* EndpointHealthName(EndpointHealth state) {
  switch (state) {
    case EndpointHealth::kHealthy:
      return "healthy";
    case EndpointHealth::kDegraded:
      return "degraded";
    case EndpointHealth::kDead:
      return "dead";
    case EndpointHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthRegistry::HealthRegistry(HealthPolicy policy, obs::MetricsRegistry* metrics)
    : policy_(policy), metrics_(metrics) {}

void HealthRegistry::AddEndpoint(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  EntryLocked(endpoint);
  RefreshGaugesLocked();
}

void HealthRegistry::SetExpectedDigest(const std::array<uint8_t, 32>& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  expected_digest_ = digest;
  have_expected_digest_ = true;
}

void HealthRegistry::ReportProbeSuccess(const std::string& endpoint,
                                        const wire::WireHealthReply& reply,
                                        uint64_t rtt_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointStatus& entry = EntryLocked(endpoint);
  metrics_->GetCounter(obs::kHealthProbes)->Increment();
  metrics_->GetHistogram(obs::kHealthProbeRttUs)->Record(static_cast<double>(rtt_us));

  // A verified reply under stale parameters is a failure, not a success:
  // the server is alive but would reject (or worse, mis-verify) our shards.
  // An all-zero digest just means no session has installed a setup yet.
  if (have_expected_digest_ && !AllZero(reply.params_digest) &&
      !ConstantTimeEqual(BytesView(reply.params_digest.data(), reply.params_digest.size()),
                         BytesView(expected_digest_.data(), expected_digest_.size()))) {
    metrics_->GetCounter(obs::kHealthProbeFailures)->Increment();
    ApplyOutcome(&entry, /*success=*/false, "stale params digest");
    RefreshGaugesLocked();
    return;
  }

  // Uptime going backwards means the process restarted between probes. It
  // answers fine, but it re-enters through recovering like any resurrection.
  const bool restarted =
      entry.last_uptime_ms != 0 && reply.uptime_ms < entry.last_uptime_ms;
  entry.server_id = reply.server_id;
  entry.last_uptime_ms = reply.uptime_ms;
  entry.last_rtt_us = rtt_us;
  entry.inflight_shards = reply.inflight_shards;
  entry.queue_depth = reply.queue_depth;
  if (restarted) {
    ++entry.restarts_seen;
    metrics_->GetCounter(obs::kHealthRestartsSeen)->Increment();
    entry.consecutive_failures = 0;
    entry.consecutive_successes = 1;  // this probe counts
    ++entry.probes;
    entry.last_error.clear();
    if (entry.state != EndpointHealth::kRecovering) {
      TransitionLocked(&entry, EndpointHealth::kRecovering);
    }
    RefreshGaugesLocked();
    return;
  }
  ApplyOutcome(&entry, /*success=*/true, "");
  RefreshGaugesLocked();
}

void HealthRegistry::ReportProbeFailure(const std::string& endpoint,
                                        const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointStatus& entry = EntryLocked(endpoint);
  metrics_->GetCounter(obs::kHealthProbes)->Increment();
  metrics_->GetCounter(obs::kHealthProbeFailures)->Increment();
  ApplyOutcome(&entry, /*success=*/false, reason);
  RefreshGaugesLocked();
}

EndpointHealth HealthRegistry::State(const std::string& endpoint) const {
  return Status(endpoint).state;
}

EndpointStatus HealthRegistry::Status(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    EndpointStatus unknown;
    unknown.endpoint = endpoint;
    return unknown;
  }
  return it->second;
}

EndpointStatus& HealthRegistry::EntryLocked(const std::string& endpoint) {
  EndpointStatus& entry = endpoints_[endpoint];
  entry.endpoint = endpoint;
  return entry;
}

void HealthRegistry::ApplyOutcome(EndpointStatus* entry, bool success,
                                  const std::string& reason) {
  EndpointStatus& s = *entry;
  ++s.probes;
  if (success) {
    s.consecutive_failures = 0;
    ++s.consecutive_successes;
    s.last_error.clear();
    switch (s.state) {
      case EndpointHealth::kHealthy:
        break;
      case EndpointHealth::kDegraded:
        // One good probe redeems a degraded endpoint: it never lost state,
        // it just missed probes.
        TransitionLocked(entry, EndpointHealth::kHealthy);
        break;
      case EndpointHealth::kDead:
        // Back from the dead -- but a resurrected server must prove itself
        // over recovered_after_successes probes before shards trust it.
        s.consecutive_successes = 1;
        TransitionLocked(entry, EndpointHealth::kRecovering);
        break;
      case EndpointHealth::kRecovering:
        if (s.consecutive_successes >= policy_.recovered_after_successes) {
          TransitionLocked(entry, EndpointHealth::kHealthy);
        }
        break;
    }
  } else {
    ++s.failures;
    s.consecutive_successes = 0;
    ++s.consecutive_failures;
    s.last_error = reason;
    switch (s.state) {
      case EndpointHealth::kHealthy:
        if (s.consecutive_failures >= policy_.degraded_after_failures) {
          TransitionLocked(entry, EndpointHealth::kDegraded);
        }
        break;
      case EndpointHealth::kDegraded:
        if (s.consecutive_failures >= policy_.dead_after_failures) {
          TransitionLocked(entry, EndpointHealth::kDead);
        }
        break;
      case EndpointHealth::kDead:
        break;
      case EndpointHealth::kRecovering:
        // A recovering endpoint that stumbles goes straight back to dead:
        // it had no credit to burn.
        TransitionLocked(entry, EndpointHealth::kDead);
        break;
    }
  }
}

void HealthRegistry::TransitionLocked(EndpointStatus* entry, EndpointHealth next) {
  if (entry->state == next) {
    return;
  }
  entry->state = next;
  ++entry->transitions;
  metrics_->GetCounter(obs::kHealthTransitions)->Increment();
}

void HealthRegistry::RefreshGaugesLocked() {
  int64_t healthy = 0, degraded = 0, dead = 0, recovering = 0;
  for (const auto& [name, entry] : endpoints_) {
    switch (entry.state) {
      case EndpointHealth::kHealthy:
        ++healthy;
        break;
      case EndpointHealth::kDegraded:
        ++degraded;
        break;
      case EndpointHealth::kDead:
        ++dead;
        break;
      case EndpointHealth::kRecovering:
        ++recovering;
        break;
    }
  }
  metrics_->GetGauge(obs::kHealthEndpointsHealthy)->Set(healthy);
  metrics_->GetGauge(obs::kHealthEndpointsDegraded)->Set(degraded);
  metrics_->GetGauge(obs::kHealthEndpointsDead)->Set(dead);
  metrics_->GetGauge(obs::kHealthEndpointsRecovering)->Set(recovering);
}

}  // namespace net
}  // namespace vdp
