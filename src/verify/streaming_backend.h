// Shared lifecycle for every backend: uploads flow through the shard
// dispatcher (src/shard/stream_dispatch.h) as they are Added, so shards ship
// to the backend's executor -- pool threads or verify_server daemons --
// while ingestion continues, and resident memory is bounded by the
// dispatcher's in-flight window instead of the stream length.
//
// Derived classes provide the executor (MakeExecutor) and the historical
// one-shot shard partition (OneShotShardCount); this base provides the
// Start/Add/Finish lifecycle, the zero-copy bulk VerifyAll (which discards
// any open stream), live Progress, and the canonical stage accounting:
//
//   total  = wall time inside Add + wall time inside Finish
//   ingest = Add wall minus the time Add spent blocked on the window
//            (backpressure is verify-side congestion, not buffering cost)
//   verify = backpressure wait + the Finish drain, minus combine
//   combine = the deterministic merge (set by CombineShardResults)
//
// so ingest + verify + combine == total and a saturated pipeline shows up as
// verify time, exactly where the bottleneck is.
#ifndef SRC_VERIFY_STREAMING_BACKEND_H_
#define SRC_VERIFY_STREAMING_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/shard/stream_dispatch.h"
#include "src/verify/backend.h"

namespace vdp {

template <PrimeOrderGroup G>
class StreamingVerifyBackend : public VerifyBackend<G> {
 public:
  void Start(const VerifyOptions& options) override {
    options_ = options;
    AbortStream();
  }

  void Add(ClientUploadMsg<G> upload) override {
    EnsureStream();  // tolerate Add-before-Start
    TrackFirstAdd();
    Stopwatch timer;
    dispatcher_->Add(std::move(upload));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) override {
    if (uploads.empty()) {
      return;
    }
    EnsureStream();
    TrackFirstAdd();
    Stopwatch timer;
    dispatcher_->AddBulk(std::move(uploads));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  VerifyReport<G> Finish() override {
    EnsureStream();  // Finish-without-Start yields an empty report
    // Producer time blocked on the window so far is verify-side congestion;
    // the remainder of the Add wall is the true ingest cost.
    const double wait_before_ms = dispatcher_->backpressure_wait_ms();
    const double ingest_ms = std::max(0.0, add_wall_ms_ - wait_before_ms);
    RecordIngestSpan(ingest_ms);
    Stopwatch timer;
    VerifyReport<G> report = dispatcher_->Finish();
    const double finish_wall_ms = timer.ElapsedMillis();
    // Sealing the last partial shard inside Finish can block on the window
    // too; that wait is already inside finish_wall_ms, so only the
    // pre-Finish wait is added on top of the drain.
    const double total_wait_ms = dispatcher_->last_backpressure_wait_ms();
    const double drain_wait_ms = std::max(0.0, total_wait_ms - wait_before_ms);
    report.backend = this->name();
    report.timings.ingest_ms = ingest_ms;
    report.timings.verify_ms = std::max(
        0.0, total_wait_ms + finish_wall_ms - drain_wait_ms - report.timings.combine_ms);
    report.timings.total_ms = add_wall_ms_ + finish_wall_ms;
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
    OnStreamFinished();
    return report;
  }

  VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                            const VerifyOptions& options = {}) override {
    // Like Start: a one-shot call discards any buffered stream and fixes the
    // options a later lazily-opened stream will reuse.
    options_ = options;
    AbortStream();
    Stopwatch timer;
    executor_ = MakeExecutor(options_, /*streaming=*/false);
    // Zero-copy bulk path: contiguous shards over the caller's vector, same
    // dispatcher machinery, historical partition.
    VerifyReport<G> report = DispatchAllShards<G>(
        config(), executor_.get(), uploads, OneShotShardCount(uploads.size()),
        options_.compute_products, options_.tracer, options_.trace_parent);
    report.backend = this->name();
    report.timings.total_ms = timer.ElapsedMillis();
    OnStreamFinished();
    return report;
  }

  VerifyProgress Progress() const override {
    // The dispatcher is engaged lazily on the producer thread (EnsureStream),
    // but Progress is documented any-thread-safe, so observers must not peek
    // at the optional directly: has_value() and the dispatcher's constructor
    // writes are unsynchronized with a concurrent emplace. Reading through
    // the release-published pointer gives the needed happens-before (pinned
    // by fleet_stress_test's RemoteBackendProgressWhileStreaming, which
    // fails under TSan on the optional-based read).
    const StreamDispatcher<G>* live = live_dispatcher_.load(std::memory_order_acquire);
    return live != nullptr ? live->Progress() : VerifyProgress{};
  }

 protected:
  // The execution engine shards are handed to. Called once per stream (and
  // once per one-shot VerifyAll); the base owns the result and keeps it
  // alive until the next stream starts.
  virtual std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& options,
                                                         bool streaming) = 0;

  // The bulk-path partition for n uploads, before clamping to [1, max(1,n)].
  // Fixed per backend so one-shot shard coordinates -- and reports -- are
  // unchanged from the buffered era.
  virtual size_t OneShotShardCount(size_t n) const = 0;

  virtual const ProtocolConfig& config() const = 0;

  // Runs after every Finish/VerifyAll; fleet backends harvest their
  // executor's health report here.
  virtual void OnStreamFinished() {}

  const VerifyOptions& options() const { return options_; }

  // Discards any open stream (queued shards dropped, lanes joined) and the
  // executor. Derived destructors MUST call this: the dispatcher's teardown
  // reaches into the executor, so both have to go down here, not in member
  // destruction order.
  void AbortStream() {
    if (dispatcher_.has_value()) {
      // Unpublish before teardown so a stale observer sees "no stream"
      // rather than a dispatcher mid-destruction. (Teardown itself still
      // requires observers to have quiesced, same as destruction.)
      live_dispatcher_.store(nullptr, std::memory_order_release);
      dispatcher_->Abort();
      dispatcher_.reset();
    }
    executor_.reset();
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
  }

 private:
  void EnsureStream() {
    if (dispatcher_.has_value()) {
      return;
    }
    executor_ = MakeExecutor(options_, /*streaming=*/true);
    StreamDispatchOptions dispatch_options;
    dispatch_options.shard_capacity = options_.stream_shard_capacity > 0
                                          ? options_.stream_shard_capacity
                                          : config().stream_shard_capacity;
    dispatch_options.max_inflight_shards = options_.stream_max_inflight_shards > 0
                                               ? options_.stream_max_inflight_shards
                                               : config().stream_max_inflight_shards;
    dispatch_options.compute_products = options_.compute_products;
    dispatch_options.tracer = options_.tracer;
    dispatch_options.trace_parent = options_.trace_parent;
    dispatcher_.emplace(config(), executor_.get(), dispatch_options);
    // Publish only after the dispatcher is fully constructed; Progress()
    // acquires through this pointer instead of touching the optional.
    live_dispatcher_.store(&*dispatcher_, std::memory_order_release);
  }

  void TrackFirstAdd() {
    if (!ingested_any_ && options_.tracer != nullptr) {
      first_add_us_ = options_.tracer->NowUs();
    }
    ingested_any_ = true;
  }

  // The ingest stage as one span: anchored at the first Add, lasting the
  // backpressure-corrected buffering time.
  void RecordIngestSpan(double ingest_ms) {
    if (options_.tracer == nullptr || !ingested_any_) {
      return;
    }
    obs::SpanRecord span;
    span.name = kStageIngest;
    span.trace_id = options_.trace_parent.trace_id != 0 ? options_.trace_parent.trace_id
                                                        : options_.tracer->trace_id();
    span.span_id = obs::NextSpanId();
    span.parent_span_id = options_.trace_parent.span_id;
    span.start_us = first_add_us_;
    span.duration_us = static_cast<uint64_t>(ingest_ms * 1000.0);
    options_.tracer->Record(std::move(span));
  }

  VerifyOptions options_;
  // Declaration order is load-bearing: the dispatcher must be destroyed (and
  // its lanes joined) before the executor it points into. AbortStream()
  // enforces the same order for every non-destructor teardown.
  std::unique_ptr<ShardExecutor<G>> executor_;
  std::optional<StreamDispatcher<G>> dispatcher_;
  // Cross-thread view of dispatcher_: set (release) after emplace, cleared
  // before reset, loaded (acquire) by Progress(). Observers only ever reach
  // the dispatcher through this pointer.
  std::atomic<StreamDispatcher<G>*> live_dispatcher_{nullptr};
  double add_wall_ms_ = 0;
  uint64_t first_add_us_ = 0;
  bool ingested_any_ = false;
};

}  // namespace vdp

#endif  // SRC_VERIFY_STREAMING_BACKEND_H_
