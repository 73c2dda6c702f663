// Verification trace spans: a scoped-timer API that turns one verification
// run -- ingest, shard dispatch, per-shard RLC/MSM, combiner, final Eq. 10
// check -- into a single tree of timed spans, even when the shards were
// verified by other processes or other machines.
//
// Model (deliberately the minimal subset of the OpenTelemetry span shape):
//   - A trace is identified by a nonzero 64-bit trace_id.
//   - A span is (trace_id, span_id, parent_span_id, name, start_us,
//     duration_us, proc), where start_us is measured on the collector's own
//     monotonic clock, relative to the collector's epoch.
//   - TraceSpan is an RAII scope: constructing one starts the clock, its
//     destructor (or End()) records the finished span into the collector.
//
// Crossing a process boundary: the driver stamps (trace_id, parent span id)
// into the wire shard task; the server builds its own collector whose
// epoch is task receipt, parents its spans under the driver's span id, and
// ships the finished records back inside the wire shard result. The driver
// adopts them with AdoptRemote, rebasing start_us onto the dispatch span's
// timeline -- clocks are never compared across machines, only durations and
// relative offsets, so the stitched tree is coherent without clock sync
// (remote span placement is accurate to the network round-trip).
//
// Span ids are unique per process (pid-salted counter), so a driver plus any
// number of servers cannot collide in one trace.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vdp {
namespace obs {

// The (trace, parent span) coordinates handed to a child scope -- or across
// the wire. trace_id == 0 means "not tracing"; every producer treats that as
// a no-op, which is what keeps the instrumentation free when disabled.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool active() const { return trace_id != 0; }
};

// One finished span.
struct SpanRecord {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root
  uint64_t start_us = 0;        // offset from the collector's epoch
  uint64_t duration_us = 0;
  std::string proc;    // which process recorded it ("driver", "server:1", ...)
  std::string detail;  // free-form annotation (endpoint, shard range, ...)
};

// Process-unique span id: a pid-salted SplitMix64 over a process-local
// counter. Deterministic enough to debug, unique enough to never collide
// across the driver and its fleet within one trace.
inline uint64_t NextSpanId() {
  static std::atomic<uint64_t> counter{0};
  uint64_t x = (static_cast<uint64_t>(getpid()) << 32) ^ counter.fetch_add(1);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x = x ^ (x >> 31);
  return x != 0 ? x : 1;  // 0 is reserved for "no span"
}

class TraceSpan;

// Accumulates finished spans for one run. Thread-safe: driver threads and
// the combiner record concurrently. The epoch is fixed at construction; all
// start_us offsets are measured against it on the steady clock.
class TraceCollector {
 public:
  TraceCollector() : epoch_(std::chrono::steady_clock::now()), trace_id_(NextSpanId()) {}

  uint64_t trace_id() const { return trace_id_; }

  // Microseconds since this collector's epoch, on the steady clock.
  uint64_t NowUs() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     std::chrono::steady_clock::now() - epoch_)
                                     .count());
  }

  // The root context new spans without an explicit parent hang from.
  TraceContext RootContext() const { return TraceContext{trace_id_, 0}; }

  void Record(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
  }

  // Adopts spans recorded by a remote process whose epoch was "when it
  // received the task": start_us is rebased by the driver-side offset at
  // which that task was dispatched, so the remote spans land inside the
  // dispatch span on the driver's timeline.
  void AdoptRemote(std::vector<SpanRecord> remote, uint64_t rebase_start_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (SpanRecord& span : remote) {
      span.trace_id = trace_id_;  // remote spans join this trace
      span.start_us += rebase_start_us;
      spans_.push_back(std::move(span));
    }
  }

  std::vector<SpanRecord> TakeSpans() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> out = std::move(spans_);
    spans_.clear();
    return out;
  }

  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_;
  uint64_t trace_id_;
  std::vector<SpanRecord> spans_;
};

// RAII scope: starts timing at construction, records into the collector at
// End()/destruction. Null collector or inactive parent context makes every
// operation a no-op, so call sites never branch on "is tracing enabled".
class TraceSpan {
 public:
  TraceSpan() = default;

  // Starts a span named `name` under `parent` (pass collector->RootContext()
  // for a root span).
  TraceSpan(TraceCollector* collector, std::string name, TraceContext parent,
            std::string proc = "driver")
      : collector_(collector) {
    if (collector_ == nullptr) {
      return;
    }
    record_.name = std::move(name);
    record_.trace_id = parent.trace_id != 0 ? parent.trace_id : collector_->trace_id();
    record_.span_id = NextSpanId();
    record_.parent_span_id = parent.span_id;
    record_.proc = std::move(proc);
    record_.start_us = collector_->NowUs();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      End();
      collector_ = other.collector_;
      record_ = std::move(other.record_);
      other.collector_ = nullptr;
    }
    return *this;
  }

  ~TraceSpan() { End(); }

  // The context children of this span should use. Inactive when not tracing.
  TraceContext context() const {
    return collector_ != nullptr ? TraceContext{record_.trace_id, record_.span_id}
                                 : TraceContext{};
  }

  void set_detail(std::string detail) {
    if (collector_ != nullptr) {
      record_.detail = std::move(detail);
    }
  }

  uint64_t start_us() const { return record_.start_us; }

  // Records the finished span; idempotent.
  void End() {
    if (collector_ == nullptr) {
      return;
    }
    record_.duration_us = collector_->NowUs() - record_.start_us;
    collector_->Record(std::move(record_));
    collector_ = nullptr;
  }

 private:
  TraceCollector* collector_ = nullptr;
  SpanRecord record_;
};

}  // namespace obs
}  // namespace vdp

#endif  // SRC_OBS_TRACE_H_
