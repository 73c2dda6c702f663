// PerProofBackend: the oracle execution of Line 3 -- every Sigma-OR proof of
// every upload verified individually (src/core/client.h's
// ValidateClientUpload), independent uploads fanned across the thread pool.
//
// This is the slowest backend and the ground truth: the sharded (RLC-batched)
// and remote backends both fall back to this per-proof check to attribute
// blame, which is why their decisions cannot diverge from it.
//
// Streaming runs the same per-proof oracle over dispatcher-cut shards (the
// verdict is per-upload and carries the global index, so the cut is
// invisible in the report); the one-shot path keeps the historical single
// whole-stream shard with the pool fanned across uploads.
#ifndef SRC_VERIFY_PER_PROOF_BACKEND_H_
#define SRC_VERIFY_PER_PROOF_BACKEND_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/client.h"
#include "src/shard/stream_dispatch.h"
#include "src/verify/streaming_backend.h"

namespace vdp {

// Verifies a shard proof-by-proof -- no RLC, no batching, no sub-spans; the
// plain oracle. Result assembly still goes through BuildShardResult so the
// bit-identity contract with every other backend has one implementation.
template <PrimeOrderGroup G>
class PerProofShardExecutor final : public ShardExecutor<G> {
 public:
  // forced_lanes == 1 gives the single shard the whole pool internally (the
  // one-shot shape); forced_lanes == 0 sizes lanes to the pool and runs each
  // shard serially within its lane (the streaming shape).
  PerProofShardExecutor(const ProtocolConfig& config, const Pedersen<G>& ped,
                        ThreadPool* pool, size_t forced_lanes = 0)
      : config_(config),
        ped_(ped),
        pool_(pool),
        lanes_(forced_lanes > 0 ? forced_lanes
               : pool != nullptr ? std::max<size_t>(1, pool->worker_count())
                                 : 1) {}

  size_t lanes() const override { return lanes_; }

  ShardResult<G> ExecuteShard(size_t /*lane*/, const ShardPayload<G>& shard) override {
    ThreadPool* inner = lanes_ == 1 ? pool_ : nullptr;
    const ClientUploadMsg<G>* uploads = shard.data();
    const size_t n = shard.count();
    std::vector<uint8_t> ok(n, 0);
    std::vector<std::string> why(n);
    auto work = [&](size_t i) {
      ok[i] = ValidateClientUpload(uploads[i], shard.base + i, config_, ped_, &why[i]) ? 1 : 0;
    };
    if (inner != nullptr) {
      inner->ParallelFor(n, work);
    } else {
      for (size_t i = 0; i < n; ++i) {
        work(i);
      }
    }
    return BuildShardResult(config_, uploads, n, shard.base, shard.shard_index, ok, why,
                            shard.compute_products);
  }

 private:
  const ProtocolConfig& config_;
  const Pedersen<G>& ped_;
  ThreadPool* pool_;
  size_t lanes_;
};

template <PrimeOrderGroup G>
class PerProofBackend final : public StreamingVerifyBackend<G> {
 public:
  PerProofBackend(const ProtocolConfig& config, Pedersen<G> ped)
      : config_(config), ped_(std::move(ped)) {}

  ~PerProofBackend() override { this->AbortStream(); }

  std::string_view name() const override { return "per-proof"; }

 protected:
  std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& options,
                                                 bool streaming) override {
    return std::make_unique<PerProofShardExecutor<G>>(config_, ped_, options.pool,
                                                      streaming ? 0 : 1);
  }

  // The oracle's one-shot unit of work is the whole stream.
  size_t OneShotShardCount(size_t /*n*/) const override { return 1; }

  const ProtocolConfig& config() const override { return config_; }

 private:
  ProtocolConfig config_;
  Pedersen<G> ped_;
};

}  // namespace vdp

#endif  // SRC_VERIFY_PER_PROOF_BACKEND_H_
