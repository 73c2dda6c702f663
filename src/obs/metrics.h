// Fleet-wide metrics: lock-cheap counters, gauges, and fixed-bucket latency
// histograms, collected into one registry and exported through the run-log
// (src/obs/runlog.h).
//
// Design constraints, in order:
//   - The hot paths this instruments (per-frame wire I/O, per-shard RLC/MSM,
//     per-proof validation) must pay one relaxed atomic op per event, never a
//     lock. Registration (name -> metric lookup) takes a mutex, so call
//     sites hold the returned pointer -- metrics have stable addresses for
//     the registry's lifetime.
//   - Zero dependencies beyond the standard library, like the rest of the
//     tree.
//   - One registry per process by default (Global()): verify_server
//     daemons snapshot it into their own run-logs, the driver snapshots its
//     own; the run-log stitches the fleet view together. Tests construct
//     private registries.
//
// Metric names are dotted paths ("fleet.reconnects", "wire.bytes_out"). The
// canonical catalog is the list of constants below and README "Observability";
// the fleet counters the adversarial tests pin are part of the public
// schema, so renaming one is a schema version bump.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vdp {
namespace obs {

// --- Canonical metric names ---------------------------------------------
// Producers and consumers (run-log readers, the fleet-event regression
// tests) share these constants so a renamed counter cannot silently
// decouple the emitter from the trend job.
inline constexpr const char* kFleetRetries = "fleet.retries";
inline constexpr const char* kFleetBlamed = "fleet.blamed";
inline constexpr const char* kFleetReconnects = "fleet.reconnects";
inline constexpr const char* kFleetConnections = "fleet.connections";
inline constexpr const char* kFleetShardsRemote = "fleet.shards_remote";
inline constexpr const char* kFleetShardsRecovered = "fleet.shards_recovered";
inline constexpr const char* kAuthFailures = "auth.failures";
inline constexpr const char* kWireBytesIn = "wire.bytes_in";
inline constexpr const char* kWireBytesOut = "wire.bytes_out";
inline constexpr const char* kWireFramesIn = "wire.frames_in";
inline constexpr const char* kWireFramesOut = "wire.frames_out";
inline constexpr const char* kMsmScalars = "msm.scalars";
inline constexpr const char* kMsmCalls = "msm.calls";
inline constexpr const char* kShardQueueDepth = "shard.queue_depth";
inline constexpr const char* kVerifyUsPerProof = "verify.us_per_proof";
inline constexpr const char* kVerifyShardMs = "verify.shard_ms";
// Sub-batch MSMs the blame search runs when a batch check fails
// (OrBatch::Blame, src/batch/batch_or_proof.h).
inline constexpr const char* kVerifyBisectBatches = "verify.bisect_batches";
// Streaming-pipeline state (src/verify/backend.h): gauge max() is the
// stream's high-water mark, which is what bounds resident memory.
inline constexpr const char* kStreamInflightShards = "stream.inflight_shards";
inline constexpr const char* kStreamBufferedUploads = "stream.buffered_uploads";
inline constexpr const char* kBackpressureWaitUs = "backpressure.wait_us";
// Process peak RSS (VmHWM), stamped into the run-log footer by
// RunLogWriter::Footer so bounded-memory claims are machine-checkable.
inline constexpr const char* kMemRssHwmKb = "mem.rss_hwm_kb";
// Live fleet introspection (src/net/health.h): probe traffic,
// state-machine transitions, and the per-state endpoint population gauges.
inline constexpr const char* kHealthProbes = "health.probes";
inline constexpr const char* kHealthProbeFailures = "health.probe_failures";
inline constexpr const char* kHealthTransitions = "health.transitions";
inline constexpr const char* kHealthRestartsSeen = "health.restarts_seen";
inline constexpr const char* kHealthEndpointsHealthy = "health.endpoints_healthy";
inline constexpr const char* kHealthEndpointsDegraded = "health.endpoints_degraded";
inline constexpr const char* kHealthEndpointsDead = "health.endpoints_dead";
inline constexpr const char* kHealthEndpointsRecovering = "health.endpoints_recovering";
inline constexpr const char* kHealthProbeRttUs = "health.probe_rtt_us";
// Server-side admin plane (tools/verify_server): probes and stats requests
// answered.
inline constexpr const char* kAdminProbesServed = "admin.probes_served";
inline constexpr const char* kAdminStatsServed = "admin.stats_served";

// A monotone event count. Add/Increment are wait-free.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A last-write-wins instantaneous level (queue depths, fleet sizes). Set/Add
// are wait-free; Max keeps a high-water mark alongside the level.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }
  void Add(int64_t delta) {
    const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateMax(int64_t candidate) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

// A fixed-bucket latency histogram with log-scaled (HDR-style) bounds. The
// bucket upper bounds are fixed at construction; Record is wait-free: one
// binary search over a small constant array plus three relaxed atomics.
// Percentiles (p50/p90/p99) are extracted from snapshots by bucket
// interpolation -- see HistogramSnapshot::Percentile.
class Histogram {
 public:
  // Log-scaled ladder: `per_decade` geometrically spaced bounds per power
  // of ten, from lo to hi inclusive. Relative quantization error of any
  // recorded value is bounded by the bucket ratio (10^(1/per_decade)),
  // uniformly across the whole range -- the HDR histogram property.
  static std::vector<double> LogBuckets(double lo, double hi, int per_decade) {
    std::vector<double> bounds;
    if (!(lo > 0) || !(hi >= lo) || per_decade <= 0) {
      return bounds;
    }
    const long k_lo = std::lround(std::log10(lo) * per_decade);
    const long k_hi = std::lround(std::log10(hi) * per_decade);
    bounds.reserve(static_cast<size_t>(k_hi - k_lo + 1));
    for (long k = k_lo; k <= k_hi; ++k) {
      bounds.push_back(std::pow(10.0, static_cast<double>(k) / per_decade));
    }
    return bounds;
  }

  // Six buckets per decade from 1us to 100s (49 bounds; the last bucket is
  // +inf): ~47% worst-case quantization per bucket, tight enough that p99
  // on an interpolated bucket is within one bucket ratio of the true value.
  static std::vector<double> DefaultLatencyBuckets() {
    return LogBuckets(1.0, 1e8, 6);
  }

  explicit Histogram(std::vector<double> bucket_bounds)
      : bounds_(std::move(bucket_bounds)), counts_(bounds_.size() + 1) {}

  void Record(double value) {
    const size_t bucket =
        std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Sum as fixed-point nanos-of-unit to stay a single atomic op.
    sum_milli_.fetch_add(static_cast<int64_t>(value * 1000.0), std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_milli_.load(std::memory_order_relaxed) / 1000.0; }
  std::vector<uint64_t> bucket_counts() const {
    std::vector<uint64_t> out(counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i) {
      out[i] = counts_[i].load(std::memory_order_relaxed);
    }
    return out;
  }
  void Reset() {
    for (auto& c : counts_) {
      c.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_milli_.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  // deque-free stable storage: atomics are not movable, so the vector is
  // sized once in the constructor and never resized.
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_milli_{0};
};

// Snapshot forms, consumed by the run-log emitter and tests.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
  int64_t max = 0;
};
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0;

  // The q-quantile (q in [0, 1]) by cumulative-bucket linear interpolation:
  // the rank'th recorded value is located in its bucket and interpolated
  // between the bucket's bounds (0 below the first bound; the overflow
  // bucket clamps to the last bound). Exact for the bucket, approximate
  // within it -- the log-scaled ladder bounds the relative error.
  double Percentile(double q) const {
    if (count == 0 || counts.empty()) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(count);
    double cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      const double in_bucket = static_cast<double>(counts[i]);
      if (in_bucket == 0) {
        continue;
      }
      if (cumulative + in_bucket >= rank) {
        if (i >= bounds.size()) {
          return bounds.empty() ? 0.0 : bounds.back();  // overflow bucket
        }
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        const double fraction =
            std::min(1.0, std::max(0.0, (rank - cumulative) / in_bucket));
        return lower + (bounds[i] - lower) * fraction;
      }
      cumulative += in_bucket;
    }
    return bounds.empty() ? 0.0 : bounds.back();
  }

  double P50() const { return Percentile(0.50); }
  double P90() const { return Percentile(0.90); }
  double P99() const { return Percentile(0.99); }
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;    // sorted by name
  std::vector<GaugeSnapshot> gauges;        // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name

  const CounterSnapshot* FindCounter(const std::string& name) const {
    for (const CounterSnapshot& c : counters) {
      if (c.name == name) {
        return &c;
      }
    }
    return nullptr;
  }
  uint64_t CounterValue(const std::string& name) const {
    const CounterSnapshot* c = FindCounter(name);
    return c != nullptr ? c->value : 0;
  }
};

// Name -> metric registry. Lookup/registration is mutex-guarded; the
// returned pointers are stable for the registry's lifetime, so hot paths
// resolve once and update lock-free afterwards.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Counter>();
    }
    return slot.get();
  }

  Gauge* GetGauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Gauge>();
    }
    return slot.get();
  }

  // The first registration fixes the bucket bounds; later callers share the
  // instance (bounds argument ignored). Empty bounds pick the latency ladder.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds = {}) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (slot == nullptr) {
      if (bounds.empty()) {
        bounds = Histogram::DefaultLatencyBuckets();
      }
      slot = std::make_unique<Histogram>(std::move(bounds));
    }
    return slot.get();
  }

  MetricsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto& [name, counter] : counters_) {
      snap.counters.push_back(CounterSnapshot{name, counter->value()});
    }
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges.push_back(GaugeSnapshot{name, gauge->value(), gauge->max()});
    }
    for (const auto& [name, histogram] : histograms_) {
      snap.histograms.push_back(HistogramSnapshot{name, histogram->bounds(),
                                                  histogram->bucket_counts(),
                                                  histogram->count(), histogram->sum()});
    }
    return snap;  // std::map iteration is already name-sorted
  }

  // Zeroes every registered metric (pointers stay valid). Tests use this to
  // measure per-scenario deltas without re-resolving call-site pointers.
  void ResetAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, counter] : counters_) {
      counter->Reset();
    }
    for (auto& [name, gauge] : gauges_) {
      gauge->Reset();
    }
    for (auto& [name, histogram] : histograms_) {
      histogram->Reset();
    }
  }

  // The process-wide registry every built-in instrumentation point reports
  // to. Intentionally leaked (like GlobalPool) so instrumentation in static
  // destructors can never touch a destroyed registry.
  static MetricsRegistry& Global() {
    static MetricsRegistry* global = new MetricsRegistry();
    return *global;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Sugar for one-line instrumentation against the global registry. The
// function-local static resolves the name exactly once per call site.
inline Counter* GlobalCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}
inline Gauge* GlobalGauge(const char* name) {
  return MetricsRegistry::Global().GetGauge(name);
}
inline Histogram* GlobalHistogram(const char* name) {
  return MetricsRegistry::Global().GetHistogram(name);
}

}  // namespace obs
}  // namespace vdp

#endif  // SRC_OBS_METRICS_H_
