// VerifyBackend: the one seam through which client-upload verification
// (Line 3 of Figure 2) executes.
//
// The paper's public verifier is a single logical object; this class keeps
// it that way in code. Every execution strategy -- the per-proof oracle, the
// in-process RLC-batched shard pipeline, and the verify_server fleet over
// sockets -- is a ShardExecutor (src/shard/stream_dispatch.h) run through the
// same lifecycle:
//
//   backend->Start(options);          // begin a stream
//   backend->Add(upload);             // ingest uploads (or Submit(vector))
//   VerifyReport<G> r = backend->Finish();
//
// and produces the same structured VerifyReport (src/verify/report.h), with
// bit-identical accepted sets, rejection reasons, and commitment products.
// Uploads flow through the shard dispatcher as they are Added, so shards
// ship to the executor while ingestion continues, and resident memory is
// bounded by the dispatcher's in-flight window instead of the stream length.
// Streams are cut at ProtocolConfig::stream_shard_capacity; the one-shot
// VerifyAll views the caller's vector as a fixed partition instead.
// Callers (PublicVerifier, RunProtocol, AuditTranscript) never dispatch on
// ProtocolConfig flags themselves; MakeVerifyBackend (src/verify/factory.h)
// picks the executor and the one-shot partition.
//
// Stage accounting, the same for every executor:
//
//   total  = wall time inside Add + wall time inside Finish
//   ingest = Add wall minus the time Add spent blocked on the window
//            (backpressure is verify-side congestion, not buffering cost)
//   verify = backpressure wait + the Finish drain, minus combine
//   combine = the deterministic merge (set by CombineShardResults)
//
// so ingest + verify + combine == total and a saturated pipeline shows up as
// verify time, exactly where the bottleneck is.
#ifndef SRC_VERIFY_BACKEND_H_
#define SRC_VERIFY_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/messages.h"
#include "src/net/remote_fleet.h"
#include "src/obs/trace.h"
#include "src/shard/stream_dispatch.h"
#include "src/verify/report.h"

namespace vdp {

// Per-stream knobs, fixed at Start().
struct VerifyOptions {
  // Compute the per-prover/per-bin products of accepted commitments (the
  // client half of Eq. 10). Skip when only decisions are needed.
  bool compute_products = true;
  // Thread pool for in-process parallelism; nullptr runs serially. A server
  // fleet, which has its own execution resources, ignores it.
  ThreadPool* pool = nullptr;
  // When set, the stream records trace spans (ingest, verify, per-shard
  // dispatch, combine) into this collector, parented under trace_parent --
  // for the remote backend the span context also crosses the wire so server
  // spans stitch into the same tree. Null collector = tracing off, zero
  // overhead.
  obs::TraceCollector* tracer = nullptr;
  obs::TraceContext trace_parent{};
};

template <PrimeOrderGroup G>
class VerifyBackend {
 public:
  // `name` is stamped into every report. VerifyAll cuts a vector into
  // `one_shot_shards` contiguous shards (clamped to the upload count).
  VerifyBackend(std::string_view name, const ProtocolConfig& config,
                std::unique_ptr<ShardExecutor<G>> executor, size_t one_shot_shards)
      : name_(name),
        config_(config),
        executor_(std::move(executor)),
        one_shot_shards_(one_shot_shards) {}

  // The dispatcher's teardown reaches into the executor, so the stream must
  // go down before the executor does.
  ~VerifyBackend() { AbortStream(); }

  VerifyBackend(const VerifyBackend&) = delete;
  VerifyBackend& operator=(const VerifyBackend&) = delete;

  // Stable identifier ("per-proof", "sharded", "remote").
  std::string_view name() const { return name_; }

  // Begins a fresh verification stream, discarding any prior state. The
  // backend is reusable via a new Start after Finish.
  void Start(const VerifyOptions& options) {
    options_ = options;
    AbortStream();
  }

  // Ingests the next upload of the broadcast stream; global indices are
  // assigned in arrival order. Full shards leave for verification while
  // ingestion continues. Add before Start streams with default options.
  void Add(ClientUploadMsg<G> upload) {
    EnsureStream();
    TrackFirstAdd();
    Stopwatch timer;
    dispatcher_->Add(std::move(upload));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  // Bulk ingestion that surrenders the buffer: equivalent to Add of each
  // element in arrival order, but the dispatcher may adopt the allocation
  // outright (no per-upload copies). The vector is left empty.
  void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) {
    if (uploads.empty()) {
      return;
    }
    EnsureStream();
    TrackFirstAdd();
    Stopwatch timer;
    dispatcher_->AddBulk(std::move(uploads));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  // Bulk ingestion; equivalent to Add for each element.
  void Submit(const std::vector<ClientUploadMsg<G>>& uploads) {
    for (const ClientUploadMsg<G>& upload : uploads) {
      Add(upload);
    }
  }

  // Rvalue fast path: moves the uploads into the stream instead of copying.
  void Submit(std::vector<ClientUploadMsg<G>>&& uploads) { AddBulk(std::move(uploads)); }

  // Verifies everything ingested since Start and returns the combined
  // report. Resets the stream state; Finish without Start yields an empty
  // report.
  VerifyReport<G> Finish() {
    EnsureStream();
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
    report.backend = name_;
    report.timings.ingest_ms = ingest_ms;
    report.timings.verify_ms = std::max(
        0.0, total_wait_ms + finish_wall_ms - drain_wait_ms - report.timings.combine_ms);
    report.timings.total_ms = add_wall_ms_ + finish_wall_ms;
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
    return report;
  }

  // One-shot Start + Submit + Finish over the caller's vector, zero-copy:
  // the same dispatcher machinery views one_shot_shards contiguous slices.
  // Like Start, it discards any open stream and fixes the options a later
  // lazily-opened stream reuses.
  VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                            const VerifyOptions& options = {}) {
    options_ = options;
    AbortStream();
    Stopwatch timer;
    executor_->Prepare(options_.pool, one_shot_shards_);
    VerifyReport<G> report = DispatchAllShards<G>(
        config_, executor_.get(), uploads, one_shot_shards_, options_.compute_products,
        options_.tracer, options_.trace_parent);
    report.backend = name_;
    report.timings.total_ms = timer.ElapsedMillis();
    return report;
  }

  // Point-in-time pipeline state of the current stream: live shard/window
  // occupancy. Zeroes outside a stream. Safe from any thread.
  VerifyProgress Progress() const {
    // The dispatcher is engaged lazily on the producer thread (EnsureStream),
    // so observers must not peek at the optional directly: has_value() and
    // the dispatcher's constructor writes are unsynchronized with a
    // concurrent emplace. Reading through the release-published pointer
    // gives the needed happens-before (pinned by fleet_stress_test under
    // TSan).
    const StreamDispatcher<G>* live = live_dispatcher_.load(std::memory_order_acquire);
    return live != nullptr ? live->Progress() : VerifyProgress{};
  }

  // Fleet health of the last stream when the executor is a server fleet;
  // empty otherwise.
  RemoteFleetReport last_fleet_report() const {
    const auto* fleet = dynamic_cast<const RemoteVerifierFleet<G>*>(executor_.get());
    return fleet != nullptr ? fleet->Report() : RemoteFleetReport{};
  }

 private:
  // Discards any open stream: queued shards dropped, lanes joined.
  void AbortStream() {
    if (dispatcher_.has_value()) {
      // Unpublish before teardown so a stale observer sees "no stream"
      // rather than a dispatcher mid-destruction.
      live_dispatcher_.store(nullptr, std::memory_order_release);
      dispatcher_->Abort();
      dispatcher_.reset();
    }
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
  }

  void EnsureStream() {
    if (dispatcher_.has_value()) {
      return;
    }
    executor_->Prepare(options_.pool, /*shards=*/0);
    StreamDispatchOptions dispatch_options;
    dispatch_options.shard_capacity = config_.stream_shard_capacity;
    dispatch_options.max_inflight_shards = config_.stream_max_inflight_shards;
    dispatch_options.compute_products = options_.compute_products;
    dispatch_options.tracer = options_.tracer;
    dispatch_options.trace_parent = options_.trace_parent;
    dispatcher_.emplace(config_, executor_.get(), dispatch_options);
    // Publish only after the dispatcher is fully constructed.
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

  std::string_view name_;
  ProtocolConfig config_;
  VerifyOptions options_;
  // Declaration order is load-bearing: the dispatcher must be destroyed (and
  // its lanes joined) before the executor it points into.
  std::unique_ptr<ShardExecutor<G>> executor_;
  size_t one_shot_shards_;
  std::optional<StreamDispatcher<G>> dispatcher_;
  // Cross-thread view of dispatcher_: set (release) after emplace, cleared
  // before reset, loaded (acquire) by Progress().
  std::atomic<StreamDispatcher<G>*> live_dispatcher_{nullptr};
  double add_wall_ms_ = 0;
  uint64_t first_add_us_ = 0;
  bool ingested_any_ = false;
};

}  // namespace vdp

#endif  // SRC_VERIFY_BACKEND_H_
