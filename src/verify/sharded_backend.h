// ShardedBackend: the upload stream partitioned into contiguous shards, each
// batch-verified independently (RLC + MSM, per-proof blame fallback) by the
// in-process executor, cut and dispatched by the streaming spine
// (src/shard/stream_dispatch.h), and merged by the deterministic combiner.
//
// Streaming Add keeps memory bounded: full shards leave for pool lanes as
// soon as they are cut, and Add blocks at the in-flight window. The bulk
// path partitions the caller's vector in place with no copies, into
// config.num_verify_shards shards. With one shard (batch_verify alone) the
// whole stream is ONE RLC check: it runs on a single lane that gets the
// whole pool inside VerifyShard.
#ifndef SRC_VERIFY_SHARDED_BACKEND_H_
#define SRC_VERIFY_SHARDED_BACKEND_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/shard/stream_dispatch.h"
#include "src/verify/streaming_backend.h"

namespace vdp {

template <PrimeOrderGroup G>
class ShardedBackend final : public StreamingVerifyBackend<G> {
 public:
  ShardedBackend(const ProtocolConfig& config, Pedersen<G> ped)
      : config_(config), ped_(std::move(ped)) {}

  ~ShardedBackend() override { this->AbortStream(); }

  std::string_view name() const override { return "sharded"; }

 protected:
  std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& options,
                                                 bool streaming) override {
    const size_t forced_lanes = !streaming && config_.num_verify_shards <= 1 ? 1 : 0;
    return std::make_unique<InProcessShardExecutor<G>>(config_, ped_, options.pool,
                                                       forced_lanes);
  }

  size_t OneShotShardCount(size_t /*n*/) const override {
    return config_.num_verify_shards;
  }

  const ProtocolConfig& config() const override { return config_; }

 private:
  ProtocolConfig config_;
  Pedersen<G> ped_;
};

}  // namespace vdp

#endif  // SRC_VERIFY_SHARDED_BACKEND_H_
