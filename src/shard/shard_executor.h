// The execution seam of Line-3 verification: a sealed shard of the upload
// stream (ShardPayload) and the engines that turn one into a ShardResult
// (ShardExecutor). VerifyBackend (src/verify/backend.h) cuts the stream into
// shards, runs one thread per executor lane, and combines the results; the
// executors here are the in-process one below and the verify_server socket
// fleet (src/net/remote_fleet.h).
#ifndef SRC_SHARD_SHARD_EXECUTOR_H_
#define SRC_SHARD_SHARD_EXECUTOR_H_

#include <algorithm>
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
// or the per-proof oracle) or the verify_server socket fleet. The backend
// runs lanes() threads; lane i receives every one of its ExecuteShard(i, ..)
// calls from the same thread and CloseLane(i) from that thread when the
// stream drains, so per-lane resources (a connection) need no
// synchronization.
template <PrimeOrderGroup G>
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  // Called on the producer thread once per stream, before lanes() is read
  // and any lane starts: the caller's pool, the number of shards known up
  // front (0 when streaming), and the verify-stage span that shard work
  // parents under. An executor whose lanes are fixed resources (a fleet's
  // endpoints) ignores the pool and the shard count. Overrides must call
  // the base, which captures the trace destination.
  virtual void BeginStream(ThreadPool* pool, size_t shards, obs::TraceCollector* tracer,
                           obs::TraceContext verify_ctx) {
    (void)pool;
    (void)shards;
    tracer_ = tracer;
    verify_ctx_ = verify_ctx;
  }

  // How many shards this executor can usefully run concurrently.
  virtual size_t lanes() const = 0;

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

  void BeginStream(ThreadPool* pool, size_t shards, obs::TraceCollector* tracer,
                   obs::TraceContext verify_ctx) override {
    ShardExecutor<G>::BeginStream(pool, shards, tracer, verify_ctx);
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

}  // namespace vdp

#endif  // SRC_SHARD_SHARD_EXECUTOR_H_
