// RemoteBackend: shards farmed out to verify_server daemons over
// authenticated sockets (src/net/remote_fleet.h), with blamed retries,
// reconnects, and in-process recovery, so the verdict never depends on
// fleet health. This is the one fleet backend, local or multi-machine.
//
// The fleet comes from ProtocolConfig::remote_verifiers (validated
// endpoints) authenticated with ProtocolConfig::remote_auth_key_hex. When
// that list is empty, ProtocolConfig::verify_workers = N is sugar for a
// local fleet: on first use the backend spawns and owns N loopback
// verify_servers under a fresh fleet secret (net::LoopbackFleet) and points
// its own config copy at them; they go down with the backend. Streaming Add
// cuts shards through the dispatcher and ships them to the fleet while
// ingestion continues -- shards only leave the process as whole
// authenticated wire frames, and at most the in-flight window of them is
// resident at once.
#ifndef SRC_VERIFY_REMOTE_BACKEND_H_
#define SRC_VERIFY_REMOTE_BACKEND_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/verify/streaming_backend.h"

namespace vdp {

template <PrimeOrderGroup G>
class RemoteBackend final : public StreamingVerifyBackend<G> {
 public:
  RemoteBackend(const ProtocolConfig& config, Pedersen<G> ped,
                RemoteFleetOptions options = {})
      : config_(config), ped_(std::move(ped)), fleet_options_(std::move(options)) {}

  ~RemoteBackend() override { this->AbortStream(); }

  std::string_view name() const override { return "remote"; }

  // Fleet health of the most recent stream: blamed failures, shards served
  // remotely vs recovered in process, connections and reconnects.
  const RemoteFleetReport& last_fleet_report() const { return last_fleet_report_; }

 protected:
  std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& /*options*/,
                                                 bool /*streaming*/) override {
    if (config_.remote_verifiers.empty() && config_.verify_workers > 1 &&
        local_fleet_ == nullptr) {
      // Spawned once per backend. Servers that fail to spawn leave the fleet
      // short; with none at all every shard is recovered in process.
      local_fleet_ = std::make_unique<net::LoopbackFleet>(config_.verify_workers);
      local_fleet_->ApplyTo(&config_);
    }
    auto fleet = std::make_unique<RemoteVerifierFleet<G>>(config_, ped_, fleet_options_);
    fleet_ = fleet.get();
    return fleet;
  }

  size_t OneShotShardCount(size_t /*n*/) const override {
    return config_.num_verify_shards > 1
               ? config_.num_verify_shards
               : 2 * std::max<size_t>(1, config_.remote_verifiers.size());
  }

  const ProtocolConfig& config() const override { return config_; }

  void OnStreamFinished() override {
    if (fleet_ != nullptr) {
      last_fleet_report_ = fleet_->TakeReport();
    }
  }

 private:
  ProtocolConfig config_;
  Pedersen<G> ped_;
  RemoteFleetOptions fleet_options_;
  // The verify_workers fleet, null otherwise. ~RemoteBackend's AbortStream
  // drops the executor (and its connections) before the servers go down.
  std::unique_ptr<net::LoopbackFleet> local_fleet_;
  RemoteVerifierFleet<G>* fleet_ = nullptr;  // owned by the base as the executor
  RemoteFleetReport last_fleet_report_;
};

}  // namespace vdp

#endif  // SRC_VERIFY_REMOTE_BACKEND_H_
