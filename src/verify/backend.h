// VerifyBackend: the one seam through which client-upload verification
// (Line 3 of Figure 2) executes.
//
// The paper's public verifier is a single logical object; this class keeps
// it that way in code. Every execution strategy -- the per-proof oracle, the
// in-process RLC-batched shard pipeline, and the verify_server fleet over
// sockets -- is a ShardExecutor (src/shard/shard_executor.h) run through the
// same lifecycle:
//
//   backend->Start(options);          // begin a stream
//   backend->Add(upload);             // ingest uploads (or AddBulk(vector))
//   VerifyReport<G> r = backend->Finish();
//
// and produces the same structured VerifyReport (src/verify/report.h), with
// bit-identical accepted sets, rejection reasons, and commitment products.
// The backend owns the whole stream:
//
//   - Shard cutting: Add() fills a buffer and seals it at
//     ProtocolConfig::stream_shard_capacity, assigning contiguous
//     (base, shard_index) coordinates so Fiat-Shamir contexts -- and
//     therefore every decision -- match any other partition of the stream.
//   - Backpressure: sealed shards enter a bounded in-flight window
//     (stream_max_inflight_shards, counting queued + executing). While it is
//     full, Add() BLOCKS until a lane retires a shard; the wait is recorded
//     in the backpressure.wait_us histogram. Resident memory is therefore
//     about (window + 1) * capacity uploads however long the stream runs.
//   - Lanes: one thread per executor lane, spawned when the stream opens
//     and joined when it drains. Lane i makes every ExecuteShard(i, ..) and
//     its CloseLane(i) call, so executors keep per-lane state (a fleet
//     connection) without locking.
//   - Deterministic combine: CombineShardResults orders the results by
//     shard_index, so completion order never shows.
//
// VerifyAll runs the same stream over the caller's vector, zero-copy: it
// seals one_shot_shards contiguous views, with a window as wide as the
// shard count so it never blocks. MakeVerifyBackend (src/verify/factory.h)
// picks the executor and the one-shot partition; callers (PublicVerifier,
// RunProtocol, AuditTranscript) never dispatch on ProtocolConfig flags.
//
// Progress() is safe from any thread mid-stream; the run-log sees the same
// state through the stream.inflight_shards, stream.buffered_uploads and
// shard.queue_depth gauges, whose max() is the stream's high-water mark.
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
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/messages.h"
#include "src/net/remote_fleet.h"
#include "src/obs/trace.h"
#include "src/shard/shard_executor.h"
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
  // Uploads per sealed shard when stream_shard_capacity is 0, sized for MSM
  // efficiency.
  static constexpr size_t kDefaultShardCapacity = 1024;

  // `name` is stamped into every report. VerifyAll cuts a vector into
  // `one_shot_shards` contiguous shards (clamped to the upload count).
  VerifyBackend(std::string_view name, const ProtocolConfig& config,
                std::unique_ptr<ShardExecutor<G>> executor, size_t one_shot_shards)
      : name_(name),
        config_(config),
        executor_(std::move(executor)),
        one_shot_shards_(one_shot_shards),
        shard_capacity_(config.stream_shard_capacity > 0 ? config.stream_shard_capacity
                                                         : kDefaultShardCapacity) {}

  ~VerifyBackend() { Abort(); }

  VerifyBackend(const VerifyBackend&) = delete;
  VerifyBackend& operator=(const VerifyBackend&) = delete;

  // Stable identifier ("per-proof", "sharded", "remote").
  std::string_view name() const { return name_; }

  // Begins a fresh verification stream, discarding any prior state. The
  // backend is reusable via a new Start after Finish.
  void Start(const VerifyOptions& options) {
    Abort();
    options_ = options;
  }

  // Ingests the next upload of the broadcast stream; global indices are
  // assigned in arrival order. Full shards leave for verification while
  // ingestion continues. Add before Start streams with default options.
  void Add(ClientUploadMsg<G> upload) {
    Stopwatch timer;
    OpenStream(/*shards=*/0);
    Ingest(std::move(upload));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  // Bulk ingestion that surrenders the buffer: equivalent to Add of each
  // element in arrival order, but the backend may adopt the allocation
  // outright (no per-upload copies). The vector is left empty.
  void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) {
    if (uploads.empty()) {
      return;
    }
    Stopwatch timer;
    OpenStream(/*shards=*/0);
    if (current_.empty() && uploads.size() <= shard_capacity_) {
      // Whole-buffer fast path: the caller's allocation becomes the fill
      // buffer (sealed at once if exactly full).
      CountIngested(uploads.size());
      current_ = std::move(uploads);
      if (current_.size() >= shard_capacity_) {
        SealCurrentShard();
      }
    } else {
      for (ClientUploadMsg<G>& upload : uploads) {
        Ingest(std::move(upload));
      }
    }
    uploads.clear();
    add_wall_ms_ += timer.ElapsedMillis();
  }

  // Verifies everything ingested since Start and returns the combined
  // report. Resets the stream state; Finish without Start yields an empty
  // report.
  VerifyReport<G> Finish() {
    const bool ingested = started_;
    // Producer time blocked on the window so far is verify-side congestion;
    // the remainder of the Add wall is the true ingest cost. Sealing the
    // last partial shard can block too, but that wait is inside the drain.
    const double wait_ms = Progress().backpressure_wait_ms;
    const double ingest_ms = std::max(0.0, add_wall_ms_ - wait_ms);
    if (ingested) {
      RecordIngestSpan(ingest_ms);
    }
    Stopwatch timer;
    OpenStream(/*shards=*/0);
    VerifyReport<G> report = Drain();
    const double finish_wall_ms = timer.ElapsedMillis();
    report.backend = name_;
    report.timings.ingest_ms = ingest_ms;
    report.timings.verify_ms =
        std::max(0.0, wait_ms + finish_wall_ms - report.timings.combine_ms);
    report.timings.total_ms = add_wall_ms_ + finish_wall_ms;
    ResetState();
    return report;
  }

  // One-shot Start + AddBulk + Finish over the caller's vector, zero-copy:
  // the stream views one_shot_shards contiguous slices. Like Start, it
  // discards any open stream and fixes the options a later stream reuses.
  VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                            const VerifyOptions& options = {}) {
    Start(options);
    Stopwatch timer;
    // The historical partition -- n*s/shards boundaries over a shard count
    // clamped to [1, max(1, n)] -- so shard coordinates, and therefore
    // reports, match every earlier release.
    const size_t n = uploads.size();
    const size_t shards = std::clamp<size_t>(one_shot_shards_, 1, std::max<size_t>(1, n));
    OpenStream(shards);
    for (size_t s = 0; s < shards; ++s) {
      const size_t from = n * s / shards;
      ShardPayload<G> shard;
      shard.view = uploads.data() + from;
      shard.view_count = n * (s + 1) / shards - from;
      CountIngested(shard.view_count);
      Enqueue(std::move(shard));
    }
    VerifyReport<G> report = Drain();
    report.backend = name_;
    report.timings.total_ms = timer.ElapsedMillis();
    report.timings.verify_ms = std::max(0.0, report.timings.total_ms - report.timings.combine_ms);
    ResetState();
    return report;
  }

  // Point-in-time pipeline state of the current stream: live shard/window
  // occupancy. Zeroes outside a stream. Safe from any thread.
  VerifyProgress Progress() const {
    std::lock_guard<std::mutex> lock(mu_);
    return progress_;
  }

  // Fleet health of the last stream when the executor is a server fleet;
  // empty otherwise.
  RemoteFleetReport last_fleet_report() const {
    const auto* fleet = dynamic_cast<const RemoteVerifierFleet<G>*>(executor_.get());
    return fleet != nullptr ? fleet->Report() : RemoteFleetReport{};
  }

 private:
  // Opens the stream at its first Add, Finish or VerifyAll: one verify-stage
  // span covers the whole pipeline (per-shard and adopted server spans nest
  // under it), then the executor's per-stream hook, the window and the
  // lanes. `shards` is the count known up front, 0 when streaming.
  void OpenStream(size_t shards) {
    if (started_) {
      return;
    }
    started_ = true;
    if (options_.tracer != nullptr) {
      first_add_us_ = options_.tracer->NowUs();
    }
    verify_span_.emplace(options_.tracer, kStageVerify, options_.trace_parent);
    executor_->BeginStream(options_.pool, shards, options_.tracer, verify_span_->context());
    const size_t lanes = std::max<size_t>(1, executor_->lanes());
    // A one-shot input is already resident, so its window holds every shard;
    // a stream's default window keeps every lane busy while the next shard
    // fills.
    max_inflight_ = config_.stream_max_inflight_shards > 0 ? config_.stream_max_inflight_shards
                                                           : 2 * lanes;
    if (shards > 0) {
      max_inflight_ = shards;
    }
    threads_.reserve(lanes);
    for (size_t i = 0; i < lanes; ++i) {
      threads_.emplace_back([this, i] { LaneLoop(i); });
    }
  }

  void Ingest(ClientUploadMsg<G> upload) {
    CountIngested(1);
    current_.push_back(std::move(upload));
    if (current_.size() >= shard_capacity_) {
      SealCurrentShard();
    }
  }

  void CountIngested(size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    progress_.uploads_ingested += count;
    progress_.buffered_uploads += count;
  }

  void SealCurrentShard() {
    if (current_.empty()) {
      return;
    }
    ShardPayload<G> shard;
    shard.owned = std::move(current_);
    current_ = std::vector<ClientUploadMsg<G>>();
    current_.reserve(shard_capacity_);
    Enqueue(std::move(shard));
  }

  // Assigns the shard its stream coordinates and hands it to the lanes,
  // blocking while the in-flight window is full. The wait is the
  // backpressure signal: it is both histogrammed and folded out of the
  // caller-visible ingest stage time.
  void Enqueue(ShardPayload<G> shard) {
    shard.base = next_base_;
    shard.shard_index = next_shard_index_++;
    shard.compute_products = options_.compute_products;
    next_base_ += shard.count();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (progress_.inflight_shards >= max_inflight_) {
        Stopwatch wait;
        producer_cv_.wait(lock, [&] { return progress_.inflight_shards < max_inflight_; });
        const double waited_ms = wait.ElapsedMillis();
        progress_.backpressure_wait_ms += waited_ms;
        obs::GlobalHistogram(obs::kBackpressureWaitUs)->Record(waited_ms * 1000.0);
      }
      queue_.push_back(std::move(shard));
      ++progress_.inflight_shards;
      ++progress_.shards_cut;
      obs::GlobalGauge(obs::kShardQueueDepth)->Set(static_cast<int64_t>(queue_.size()));
      PublishWindowGauges();
    }
    lane_cv_.notify_one();
  }

  void LaneLoop(size_t lane) {
    while (true) {
      ShardPayload<G> shard;
      {
        std::unique_lock<std::mutex> lock(mu_);
        lane_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) {
          break;  // closed and drained
        }
        shard = std::move(queue_.front());
        queue_.pop_front();
        obs::GlobalGauge(obs::kShardQueueDepth)->Set(static_cast<int64_t>(queue_.size()));
      }
      ShardResult<G> result = executor_->ExecuteShard(lane, shard);
      const size_t retired = shard.count();
      shard = ShardPayload<G>();  // release the uploads before taking the lock
      {
        std::lock_guard<std::mutex> lock(mu_);
        progress_.accepted_so_far += result.accepted.size();
        progress_.rejected_so_far += result.rejections.size();
        progress_.buffered_uploads -= retired;
        ++progress_.shards_done;
        --progress_.inflight_shards;
        results_.push_back(std::move(result));
        PublishWindowGauges();
      }
      producer_cv_.notify_all();
    }
    executor_->CloseLane(lane);
  }

  // Resident uploads count the fill buffer, queued shards, and shards being
  // executed. Called under mu_.
  void PublishWindowGauges() {
    obs::GlobalGauge(obs::kStreamInflightShards)
        ->Set(static_cast<int64_t>(progress_.inflight_shards));
    obs::GlobalGauge(obs::kStreamBufferedUploads)
        ->Set(static_cast<int64_t>(progress_.buffered_uploads));
  }

  // Seals the fill buffer, joins the lanes, and merges every shard result
  // in shard order. The stream's counters stay until ResetState.
  VerifyReport<G> Drain() {
    SealCurrentShard();
    JoinLanes(/*discard_queued=*/false);
    obs::TraceSpan combine_span(options_.tracer, kStageCombine, options_.trace_parent);
    // The lanes are joined, so results_ is the producer's alone.
    VerifyReport<G> report =
        CombineShardResults(config_, std::move(results_), options_.compute_products);
    combine_span.End();
    return report;
  }

  // Discards the open stream, if any: queued shards are dropped, shards
  // already executing finish and are thrown away.
  void Abort() {
    if (started_) {
      JoinLanes(/*discard_queued=*/true);
    }
    ResetState();
  }

  void JoinLanes(bool discard_queued) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (discard_queued) {
        queue_.clear();
      }
      closed_ = true;
    }
    lane_cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
    threads_.clear();
    verify_span_.reset();  // ends the verify-stage span
  }

  // Returns to "no stream". The lanes are joined and the queue is empty,
  // but Progress() may still be reading on other threads, so what it shares
  // is reset under mu_.
  void ResetState() {
    started_ = false;
    current_.clear();
    next_base_ = 0;
    next_shard_index_ = 0;
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    results_.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
      progress_ = VerifyProgress{};
      PublishWindowGauges();
    }
    obs::GlobalGauge(obs::kShardQueueDepth)->Set(0);
  }

  // The ingest stage as one span: anchored at the first Add, lasting the
  // backpressure-corrected buffering time.
  void RecordIngestSpan(double ingest_ms) {
    if (options_.tracer == nullptr) {
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
  std::unique_ptr<ShardExecutor<G>> executor_;
  size_t one_shot_shards_;
  size_t shard_capacity_;

  // Producer-side state, touched only by the thread driving the stream.
  bool started_ = false;
  std::vector<ClientUploadMsg<G>> current_;  // the fill buffer
  size_t next_base_ = 0;
  size_t next_shard_index_ = 0;
  size_t max_inflight_ = 0;
  double add_wall_ms_ = 0;
  uint64_t first_add_us_ = 0;
  std::optional<obs::TraceSpan> verify_span_;

  // Shared with the lanes and with Progress() observers.
  mutable std::mutex mu_;
  std::condition_variable lane_cv_;      // shards available / stream closed
  std::condition_variable producer_cv_;  // window opened
  std::deque<ShardPayload<G>> queue_;
  std::vector<ShardResult<G>> results_;  // the producer's alone once lanes join
  bool closed_ = false;
  VerifyProgress progress_;

  // The lanes, declared after everything they use.
  std::vector<std::thread> threads_;
};

}  // namespace vdp

#endif  // SRC_VERIFY_BACKEND_H_
