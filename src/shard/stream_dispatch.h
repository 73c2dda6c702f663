// The streaming shard dispatcher: the one ingest->dispatch->combine spine
// every verification backend runs on.
//
// The paper's curator verifies uploads from millions of clients; holding the
// whole broadcast resident until Finish() is GBs of RSS at that scale. This
// layer makes bounded-memory streaming the machinery every backend shares:
//
//   - Shard cutting: Add() accumulates uploads into the current shard and
//     seals it at shard_capacity, assigning contiguous (base, shard_index)
//     coordinates so Fiat-Shamir contexts -- and therefore every decision --
//     are identical to the one-shot partition of the same stream.
//   - Backpressure: sealed shards enter a bounded in-flight window
//     (max_inflight_shards, counting queued + executing). When the window is
//     full, Add() BLOCKS until an executor lane retires a shard; producer
//     wait time is recorded in the backpressure.wait_us histogram. Resident
//     memory is therefore capped at roughly
//     (max_inflight_shards + 1) * shard_capacity uploads no matter how long
//     the stream runs.
//   - Execution: a ShardExecutor turns one sealed shard into one compact
//     ShardResult. Lanes map 1:1 to executor resources -- pool worker
//     threads in process, one verify_server socket per lane
//     (src/net/remote_fleet.h) -- and every
//     ExecuteShard(lane, ...) call for a lane happens on the same dispatcher
//     thread, so executors keep per-lane state without locking.
//   - Deterministic combine: results are merged with CombineShardResults,
//     which orders by shard_index; completion order never shows.
//
// Progress is observable mid-stream (Progress(), PartialReport()) and in the
// run-log via the stream.inflight_shards / stream.buffered_uploads gauges,
// whose max() is the stream's high-water mark.
#ifndef SRC_SHARD_STREAM_DISPATCH_H_
#define SRC_SHARD_STREAM_DISPATCH_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/shard/shard_result.h"

namespace vdp {

// One contiguous shard of the upload stream, handed to a ShardExecutor lane.
// Streaming shards own their uploads (moved out of the ingest buffer and
// released when the lane retires them); the one-shot path views slices of
// the caller's vector instead, so bulk verification stays zero-copy.
template <PrimeOrderGroup G>
struct ShardPayload {
  size_t shard_index = 0;
  size_t base = 0;  // global index of the first upload
  bool compute_products = true;
  std::vector<ClientUploadMsg<G>> owned;
  const ClientUploadMsg<G>* view = nullptr;
  size_t view_count = 0;

  const ClientUploadMsg<G>* data() const { return view != nullptr ? view : owned.data(); }
  size_t count() const { return view != nullptr ? view_count : owned.size(); }
};

// An execution engine for sealed shards: in-process verification (batched
// or the per-proof oracle) or the verify_server socket fleet. The dispatcher
// runs lanes() threads; lane i receives every one of its ExecuteShard(i, ..)
// calls from the same thread and CloseLane(i) from that thread when the
// stream drains, so per-lane resources (a connection) need no
// synchronization. BeginStream runs on the producer thread before any lane
// starts.
template <PrimeOrderGroup G>
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  // Called by the backend before each stream, ahead of lanes(): the caller's
  // pool and the number of shards known up front (0 when streaming). An
  // executor whose lanes are fixed resources (a fleet's endpoints) ignores
  // both.
  virtual void Prepare(ThreadPool* pool, size_t shards) {
    (void)pool;
    (void)shards;
  }

  // How many shards this executor can usefully run concurrently.
  virtual size_t lanes() const = 0;

  // Called once per stream before lanes spawn. Overrides must call the base,
  // which captures the trace destination shard work parents under.
  virtual void BeginStream(obs::TraceCollector* tracer, obs::TraceContext verify_ctx) {
    tracer_ = tracer;
    verify_ctx_ = verify_ctx;
  }

  // Turns one shard into its compact result. Must always produce a result
  // (fleet executors fall back to in-process verification rather than fail).
  virtual ShardResult<G> ExecuteShard(size_t lane, const ShardPayload<G>& shard) = 0;

  // Tears down lane-local resources when the stream drains.
  virtual void CloseLane(size_t lane) { (void)lane; }

 protected:
  obs::TraceCollector* tracer_ = nullptr;
  obs::TraceContext verify_ctx_{};
};

// The in-process executor: each shard is batch-verified (RLC + MSM, with the
// bisection blame search) by VerifyShard, or checked proof by proof by
// VerifyShardPerProof. One lane rule: a lane per pool worker, but no more
// lanes than shards known up front, and a lane gets the pool only when it is
// the only lane. Several lanes each run their shard serially (cross-shard
// parallelism comes from the lanes); a lone lane -- a one-shot whole-stream
// shard -- fans its shard across the whole pool.
template <PrimeOrderGroup G>
class InProcessShardExecutor final : public ShardExecutor<G> {
 public:
  InProcessShardExecutor(const ProtocolConfig& config, Pedersen<G> ped, bool per_proof)
      : config_(config), ped_(std::move(ped)), per_proof_(per_proof) {}

  void Prepare(ThreadPool* pool, size_t shards) override {
    pool_ = pool;
    lanes_ = pool != nullptr ? std::max<size_t>(1, pool->worker_count()) : 1;
    if (shards > 0) {
      lanes_ = std::min(lanes_, shards);
    }
  }

  size_t lanes() const override { return lanes_; }

  ShardResult<G> ExecuteShard(size_t /*lane*/, const ShardPayload<G>& shard) override {
    ThreadPool* inner = lanes_ == 1 ? pool_ : nullptr;
    if (per_proof_) {
      return VerifyShardPerProof(config_, ped_, shard.data(), shard.count(), shard.base,
                                 shard.shard_index, inner, shard.compute_products);
    }
    return VerifyShard(config_, ped_, shard.data(), shard.count(), shard.base,
                       shard.shard_index, inner, shard.compute_products, this->tracer_,
                       this->verify_ctx_);
  }

 private:
  ProtocolConfig config_;
  Pedersen<G> ped_;
  bool per_proof_;
  ThreadPool* pool_ = nullptr;
  size_t lanes_ = 1;
};

struct StreamDispatchOptions {
  // Uploads per sealed shard; 0 picks kDefaultShardCapacity (sized for MSM
  // efficiency, same default the sharded path always used).
  size_t shard_capacity = 0;
  // High-water mark on shards cut but not yet retired (queued + executing).
  // Add() blocks while the window is full. 0 picks 2 * lanes, enough to keep
  // every lane busy while the next shard fills.
  size_t max_inflight_shards = 0;
  bool compute_products = true;
  obs::TraceCollector* tracer = nullptr;
  obs::TraceContext trace_parent{};
};

template <PrimeOrderGroup G>
class StreamDispatcher {
 public:
  static constexpr size_t kDefaultShardCapacity = 1024;

  // The executor must outlive the dispatcher. Lanes spawn lazily at the
  // first Add/Finish, so constructing a dispatcher is cheap.
  StreamDispatcher(const ProtocolConfig& config, ShardExecutor<G>* executor,
                   StreamDispatchOptions options = {})
      : config_(config), executor_(executor), options_(options) {
    if (options_.shard_capacity == 0) {
      options_.shard_capacity = kDefaultShardCapacity;
    }
    if (options_.max_inflight_shards == 0) {
      options_.max_inflight_shards = 2 * std::max<size_t>(1, executor_->lanes());
    }
  }

  ~StreamDispatcher() { Abort(); }

  StreamDispatcher(const StreamDispatcher&) = delete;
  StreamDispatcher& operator=(const StreamDispatcher&) = delete;

  size_t shard_capacity() const { return options_.shard_capacity; }
  size_t max_inflight_shards() const { return options_.max_inflight_shards; }

  // Ingests the next upload of the broadcast stream (global index assigned
  // in arrival order). Seals and dispatches a shard every shard_capacity
  // uploads; blocks when the in-flight window is full.
  void Add(ClientUploadMsg<G> upload) {
    EnsureStarted();
    ingested_.fetch_add(1, std::memory_order_relaxed);
    current_.push_back(std::move(upload));
    if (current_.size() >= options_.shard_capacity) {
      SealCurrentShard();
    }
  }

  // Bulk ingestion without per-upload copies: takes the buffer, moves each
  // element into the stream. Equivalent to Add() in arrival order.
  void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) {
    if (!uploads.empty() && current_.empty() && uploads.size() <= options_.shard_capacity) {
      // Whole-buffer fast path: adopt the caller's allocation as the current
      // shard fill (sealing it immediately if exactly full).
      EnsureStarted();
      ingested_.fetch_add(uploads.size(), std::memory_order_relaxed);
      current_ = std::move(uploads);
      if (current_.size() >= options_.shard_capacity) {
        SealCurrentShard();
      }
    } else {
      for (ClientUploadMsg<G>& upload : uploads) {
        Add(std::move(upload));
      }
    }
    uploads.clear();
  }

  // One-shot ingestion of a pre-partitioned slice of caller-owned memory
  // (which must stay valid until Finish returns): the whole slice becomes
  // one shard, bypassing capacity-based cutting. Mixing AddView with Add on
  // one stream is not supported.
  void AddView(const ClientUploadMsg<G>* data, size_t count) {
    EnsureStarted();
    ingested_.fetch_add(count, std::memory_order_relaxed);
    ShardPayload<G> shard;
    shard.view = data;
    shard.view_count = count;
    shard.base = next_base_;
    shard.shard_index = next_shard_index_++;
    shard.compute_products = options_.compute_products;
    next_base_ += count;
    Enqueue(std::move(shard));
  }

  // Drains the stream: seals the partial shard, joins the lanes, merges all
  // shard results in shard order, and resets for a fresh stream.
  VerifyReport<G> Finish() {
    EnsureStarted();
    SealCurrentShard();
    CloseAndJoin();
    if (verify_span_.has_value()) {
      verify_span_->End();
      verify_span_.reset();
    }
    // The lanes are joined, but Progress()/PartialReport() observers may
    // still be running on other threads: every read or write of the shared
    // state below must stay under mu_ (pinned by
    // tests/shard/stream_dispatch_stress_test.cc under TSan).
    std::vector<ShardResult<G>> results;
    {
      std::lock_guard<std::mutex> lock(mu_);
      results = std::move(results_);
      results_.clear();
      last_backpressure_wait_ms_ = backpressure_wait_ms_;
    }
    obs::TraceSpan combine_span(options_.tracer, kStageCombine, options_.trace_parent);
    VerifyReport<G> report =
        CombineShardResults(config_, std::move(results), options_.compute_products);
    combine_span.End();
    ResetState();
    return report;
  }

  // Discards the stream: drops queued shards, joins the lanes (shards
  // already executing finish and are thrown away), resets. The next Add
  // starts a fresh stream.
  void Abort() {
    if (!started_) {
      ResetState();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.clear();
      closed_ = true;
    }
    lane_cv_.notify_all();
    producer_cv_.notify_all();
    CloseAndJoin();
    if (verify_span_.has_value()) {
      verify_span_->End();
      verify_span_.reset();
    }
    ResetState();
  }

  // Point-in-time pipeline state; safe to call from any thread mid-stream.
  VerifyProgress Progress() const {
    VerifyProgress p;
    const size_t done = done_uploads_.load(std::memory_order_relaxed);
    p.uploads_ingested = ingested_.load(std::memory_order_relaxed);
    p.buffered_uploads = p.uploads_ingested - std::min(done, p.uploads_ingested);
    std::lock_guard<std::mutex> lock(mu_);
    p.shards_cut = shards_cut_;
    p.shards_done = shards_done_;
    p.inflight_shards = inflight_;
    p.accepted_so_far = accepted_so_far_;
    p.rejected_so_far = rejected_so_far_;
    p.backpressure_wait_ms = backpressure_wait_ms_;
    return p;
  }

  // Incremental snapshot: the combined report of every shard retired so far.
  // Indices are global, so a partial report's accepted set is a prefix-
  // closed subset of the final one (modulo shards still in flight).
  VerifyReport<G> PartialReport() const {
    std::vector<ShardResult<G>> copy;
    {
      std::lock_guard<std::mutex> lock(mu_);
      copy = results_;
    }
    return CombineShardResults(config_, std::move(copy), options_.compute_products);
  }

  // Producer time spent blocked on the in-flight window, this stream.
  double backpressure_wait_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return backpressure_wait_ms_;
  }

  // Same, for the stream most recently completed by Finish().
  double last_backpressure_wait_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_backpressure_wait_ms_;
  }

 private:
  void EnsureStarted() {
    if (started_) {
      return;
    }
    started_ = true;
    closed_ = false;
    // One verify-stage span covers the whole dispatch pipeline of the
    // stream; per-shard spans (and adopted server spans) nest under
    // it, exactly like the buffered paths' verify stage.
    verify_span_.emplace(options_.tracer, kStageVerify, options_.trace_parent);
    executor_->BeginStream(options_.tracer, verify_span_->context());
    const size_t n = std::max<size_t>(1, executor_->lanes());
    threads_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { LaneLoop(i); });
    }
  }

  void SealCurrentShard() {
    if (current_.empty()) {
      return;
    }
    ShardPayload<G> shard;
    shard.owned = std::move(current_);
    shard.base = next_base_;
    shard.shard_index = next_shard_index_++;
    shard.compute_products = options_.compute_products;
    next_base_ += shard.owned.size();
    current_ = std::vector<ClientUploadMsg<G>>();
    current_.reserve(options_.shard_capacity);
    Enqueue(std::move(shard));
  }

  // Hands one sealed shard to the lanes, blocking while the in-flight window
  // is full. The wait is the backpressure signal: it is both histogrammed
  // and folded out of the caller-visible ingest stage time.
  void Enqueue(ShardPayload<G> shard) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (inflight_ >= options_.max_inflight_shards && !closed_) {
        Stopwatch wait;
        producer_cv_.wait(lock, [&] {
          return inflight_ < options_.max_inflight_shards || closed_;
        });
        const double waited_ms = wait.ElapsedMillis();
        backpressure_wait_ms_ += waited_ms;
        obs::GlobalHistogram(obs::kBackpressureWaitUs)->Record(waited_ms * 1000.0);
      }
      if (closed_) {
        return;  // aborted concurrently; drop the shard
      }
      queue_.push_back(std::move(shard));
      ++inflight_;
      ++shards_cut_;
      obs::GlobalGauge(obs::kStreamInflightShards)->Set(static_cast<int64_t>(inflight_));
      obs::GlobalGauge(obs::kShardQueueDepth)->Set(static_cast<int64_t>(queue_.size()));
      UpdateBufferedGauge();
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
      done_uploads_.fetch_add(retired, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mu_);
        accepted_so_far_ += result.accepted.size();
        rejected_so_far_ += result.rejections.size();
        results_.push_back(std::move(result));
        ++shards_done_;
        --inflight_;
        obs::GlobalGauge(obs::kStreamInflightShards)->Set(static_cast<int64_t>(inflight_));
        UpdateBufferedGauge();
      }
      producer_cv_.notify_all();
    }
    executor_->CloseLane(lane);
  }

  void CloseAndJoin() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    lane_cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  // Resident uploads = ingested minus retired (counts the fill buffer,
  // queued shards, and shards being executed). The gauge's max() is the
  // stream's memory high-water mark in uploads.
  void UpdateBufferedGauge() {
    const size_t ingested = ingested_.load(std::memory_order_relaxed);
    const size_t done = done_uploads_.load(std::memory_order_relaxed);
    obs::GlobalGauge(obs::kStreamBufferedUploads)
        ->Set(static_cast<int64_t>(ingested - std::min(done, ingested)));
  }

  // Runs between streams (lanes joined), but concurrent observers may still
  // be reading the cross-thread state: hold mu_ for everything it shares
  // with Progress()/PartialReport()/the backpressure getters.
  void ResetState() {
    current_.clear();
    started_ = false;
    next_base_ = 0;
    next_shard_index_ = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.clear();
      results_.clear();
      closed_ = false;
      shards_cut_ = 0;
      shards_done_ = 0;
      inflight_ = 0;
      accepted_so_far_ = 0;
      rejected_so_far_ = 0;
      backpressure_wait_ms_ = 0;
    }
    ingested_.store(0, std::memory_order_relaxed);
    done_uploads_.store(0, std::memory_order_relaxed);
    obs::GlobalGauge(obs::kStreamInflightShards)->Set(0);
    obs::GlobalGauge(obs::kStreamBufferedUploads)->Set(0);
    obs::GlobalGauge(obs::kShardQueueDepth)->Set(0);
  }

  ProtocolConfig config_;
  ShardExecutor<G>* executor_;
  StreamDispatchOptions options_;

  // Producer-side state (touched only by the ingesting thread).
  std::vector<ClientUploadMsg<G>> current_;
  size_t next_base_ = 0;
  size_t next_shard_index_ = 0;
  bool started_ = false;
  std::optional<obs::TraceSpan> verify_span_;
  std::vector<std::thread> threads_;

  // Cross-thread state.
  mutable std::mutex mu_;
  std::condition_variable lane_cv_;      // shards available / stream closed
  std::condition_variable producer_cv_;  // window opened
  std::deque<ShardPayload<G>> queue_;
  std::vector<ShardResult<G>> results_;
  bool closed_ = false;
  size_t inflight_ = 0;  // queued + executing
  size_t shards_cut_ = 0;
  size_t shards_done_ = 0;
  size_t accepted_so_far_ = 0;
  size_t rejected_so_far_ = 0;
  double backpressure_wait_ms_ = 0;
  double last_backpressure_wait_ms_ = 0;
  std::atomic<size_t> ingested_{0};
  std::atomic<size_t> done_uploads_{0};
};

// One-shot partitioned verification of an in-memory vector through the same
// dispatcher/lane machinery as streaming, viewing the caller's memory (no
// copies). The partition is the historical one -- num_shards contiguous
// slices of n*s/shards boundaries, clamped to [1, max(1, n)] -- so shard
// coordinates, and therefore reports, are unchanged from the buffered era.
// Sets timings.verify_ms (the drive wall) and timings.combine_ms.
template <PrimeOrderGroup G>
VerifyReport<G> DispatchAllShards(const ProtocolConfig& config, ShardExecutor<G>* executor,
                                  const std::vector<ClientUploadMsg<G>>& uploads,
                                  size_t num_shards, bool compute_products,
                                  obs::TraceCollector* tracer = nullptr,
                                  obs::TraceContext trace_parent = {}) {
  Stopwatch timer;
  const size_t n = uploads.size();
  size_t shards = std::max<size_t>(1, num_shards);
  shards = std::min(shards, std::max<size_t>(1, n));
  StreamDispatchOptions options;
  options.compute_products = compute_products;
  // Bulk input is already resident; a window would only idle lanes.
  options.max_inflight_shards = shards;
  options.tracer = tracer;
  options.trace_parent = trace_parent;
  StreamDispatcher<G> dispatcher(config, executor, options);
  for (size_t s = 0; s < shards; ++s) {
    const size_t from = n * s / shards;
    const size_t to = n * (s + 1) / shards;
    dispatcher.AddView(uploads.data() + from, to - from);
  }
  VerifyReport<G> report = dispatcher.Finish();
  report.timings.verify_ms = std::max(0.0, timer.ElapsedMillis() - report.timings.combine_ms);
  return report;
}

}  // namespace vdp

#endif  // SRC_SHARD_STREAM_DISPATCH_H_
