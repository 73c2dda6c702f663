// Multi-machine shard verification: an executor that farms shards of the
// upload stream out to verify_server daemons over authenticated sockets
// (src/net/auth.h over src/wire/frame_io.h), and feeds the decoded
// ShardResults into the same deterministic combiner as every other path.
//
// Topology: the streaming dispatcher (src/shard/stream_dispatch.h) runs one
// lane per configured endpoint, each owning one persistent connection to its
// verifier; shards flow to lanes as the dispatcher seals them, so remote
// machines verify while the driver is still ingesting. Failure handling is
// strictly per-shard:
//
//   - A connection that fails mid-shard (dropped, timed out, bad MAC, result
//     mismatch) is closed with blame recorded (which endpoint, which shard,
//     how it ended) and the shard retried over a fresh connection.
//   - Connecting itself retries (connect_attempts, backoff) so a verifier
//     that is restarting -- killed and brought back by its supervisor -- is
//     re-adopted instead of written off on the first ECONNREFUSED.
//   - A shard whose remote attempts are exhausted -- or that has no endpoint
//     to go to at all -- is verified *in process*, so a dead fleet degrades
//     to the in-process sharded path instead of losing shards.
//
// Either way every shard yields exactly one ShardResult and the combined
// verdict is bit-identical to the in-process path; fleet trouble only shows
// up in the RemoteFleetReport.
#ifndef SRC_NET_REMOTE_FLEET_H_
#define SRC_NET_REMOTE_FLEET_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hex.h"
#include "src/common/timer.h"
#include "src/net/health.h"
#include "src/net/remote_conn.h"
#include "src/net/socket.h"
#include "src/shard/shard_result.h"
#include "src/shard/stream_dispatch.h"
#include "src/wire/wire_convert.h"

namespace vdp {

// One failed attempt at farming a shard out to a remote verifier. The shard
// itself still completes (on a reconnect or in process).
struct RemoteFailure {
  size_t shard_index = 0;
  std::string endpoint;
  std::string reason;
};

struct RemoteFleetReport {
  std::vector<RemoteFailure> failures;
  size_t shards_total = 0;
  size_t shards_from_remote = 0;
  size_t shards_recovered_in_process = 0;  // retries exhausted, verified locally
  size_t connections_established = 0;
  size_t reconnects = 0;  // successful connections beyond each endpoint's first
};

struct RemoteFleetOptions {
  int connect_timeout_ms = 10'000;
  int handshake_timeout_ms = 15'000;
  // Deadline for one shard round-trip (send task, receive result).
  int shard_timeout_ms = 120'000;
  // Remote attempts per shard before the in-process fallback.
  size_t max_attempts_per_shard = 2;
  // Connect+handshake tries per (re)connection, with backoff between.
  size_t connect_attempts = 2;
  int reconnect_backoff_ms = 50;
  // When set, dispatches record "dispatch" spans here (parented under
  // trace_parent), span context crosses the wire, and server-recorded spans
  // are adopted back into this collector. Used by the one-shot VerifyAll
  // entry point; dispatcher streams override it via BeginStream.
  obs::TraceCollector* tracer = nullptr;
  obs::TraceContext trace_parent{};
  // When set, dispatch consults the health registry (fed by a background
  // prober): shards skip endpoints it calls dead (straight to the
  // in-process fallback, kFleetDispatchSkips) instead of paying the connect
  // ladder, and a lane whose own circuit breaker tripped is re-armed once
  // the registry sees the endpoint answer probes again. Not owned.
  net::HealthRegistry* health = nullptr;
};

// Farms shards to the fleet named by config.remote_verifiers, authenticated
// with config.remote_auth_key_hex. The config must have passed Validate().
template <PrimeOrderGroup G>
class RemoteVerifierFleet final : public ShardExecutor<G> {
 public:
  RemoteVerifierFleet(const ProtocolConfig& config, Pedersen<G> ped,
                      RemoteFleetOptions options = {})
      : config_(config), ped_(std::move(ped)), options_(std::move(options)) {
    for (const std::string& spec : config_.remote_verifiers) {
      auto endpoint = net::ParseEndpoint(spec);
      if (endpoint.has_value()) {  // Validate() guarantees this; belt and braces
        endpoints_.push_back(*endpoint);
      }
    }
    if (auto key = HexDecode(config_.remote_auth_key_hex); key.has_value()) {
      auth_key_ = std::move(*key);
    }
    wire::WireSetup setup = wire::MakeWireSetup(config_, ped_);
    setup_payload_ = setup.Serialize();
    params_digest_ = setup.Digest();
    lanes_.resize(std::max<size_t>(1, endpoints_.size()));
  }

  ~RemoteVerifierFleet() override {
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      CloseLane(lane);
    }
  }

  // --- ShardExecutor ------------------------------------------------------
  // Lanes map 1:1 to endpoints; each lane's connection is established lazily
  // on its first shard and persists until the stream drains (CloseLane).

  size_t lanes() const override { return lanes_.size(); }

  void BeginStream(obs::TraceCollector* tracer, obs::TraceContext verify_ctx) override {
    ShardExecutor<G>::BeginStream(tracer, verify_ctx);
    net::IgnoreSigpipe();  // a write into a dead verifier must fail with EPIPE
    for (LaneState& lane : lanes_) {
      net::CloseRemoteConn(&lane.conn);
      lane.connected_before = false;
      lane.endpoint_dead = false;
    }
    std::lock_guard<std::mutex> lock(report_mutex_);
    report_ = RemoteFleetReport{};
  }

  ShardResult<G> ExecuteShard(size_t lane_index, const ShardPayload<G>& shard) override {
    {
      std::lock_guard<std::mutex> lock(report_mutex_);
      ++report_.shards_total;
    }
    // One dispatch span covers every attempt at this shard; the server's own
    // spans parent under it via the task's trace extension.
    const std::string endpoint_name =
        endpoints_.empty() ? "" : net::FormatEndpoint(endpoints_[lane_index]);
    obs::TraceSpan dispatch_span(this->tracer_, "dispatch", this->verify_ctx_);
    dispatch_span.set_detail("shard=" + std::to_string(shard.shard_index) +
                             (endpoint_name.empty() ? "" : " endpoint=" + endpoint_name));
    ShardResult<G> result;
    bool done = false;
    if (endpoints_.empty()) {
      // Nobody to farm out to -- a verify_workers fleet whose servers all
      // failed to spawn. Blamed, then recovered like an exhausted shard.
      RecordFailure(shard.shard_index, "", "no remote endpoints");
    } else {
      done = FarmOut(&lanes_[lane_index], endpoints_[lane_index], endpoint_name, shard,
                     &dispatch_span, &result);
    }
    if (!done) {
      // Skipped, retries exhausted, or no endpoint: verify locally so the
      // shard -- and the combined verdict -- is never lost to a dead fleet.
      result = VerifyShard(config_, ped_, shard.data(), shard.count(), shard.base,
                           shard.shard_index, nullptr, shard.compute_products, this->tracer_,
                           dispatch_span.context());
      obs::GlobalCounter(obs::kFleetShardsRecovered)->Increment();
      std::lock_guard<std::mutex> lock(report_mutex_);
      ++report_.shards_recovered_in_process;
    }
    return result;
  }

  void CloseLane(size_t lane) override {
    if (lane < lanes_.size()) {
      net::CloseRemoteConn(&lanes_[lane].conn);
    }
  }

  // Fleet health accumulated since BeginStream (or construction).
  RemoteFleetReport TakeReport() {
    std::lock_guard<std::mutex> lock(report_mutex_);
    RemoteFleetReport out = std::move(report_);
    report_ = RemoteFleetReport{};
    return out;
  }

  // One-shot verification of an in-memory vector across the remote fleet.
  // The shard partition honors config.num_verify_shards when set (> 1);
  // otherwise it defaults to two shards per endpoint so a straggler can be
  // overlapped. Runs through the same dispatcher/lane machinery as
  // streaming, viewing the caller's vector (no copies).
  VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                            bool compute_products = true,
                            RemoteFleetReport* report = nullptr) {
    const size_t shards = config_.num_verify_shards > 1
                              ? config_.num_verify_shards
                              : 2 * std::max<size_t>(1, endpoints_.size());
    VerifyReport<G> combined = DispatchAllShards<G>(config_, this, uploads, shards,
                                                    compute_products, options_.tracer,
                                                    options_.trace_parent);
    if (report != nullptr) {
      *report = TakeReport();
    }
    return combined;
  }

 private:
  // Per-lane transport state. Touched only by the lane's dispatcher thread
  // (between BeginStream and CloseLane), so no locking.
  struct LaneState {
    net::RemoteConn conn;
    bool connected_before = false;
    // Circuit breaker: once a full connect-retry ladder fails, the endpoint
    // is written off for the rest of the stream.
    bool endpoint_dead = false;
  };

  // Every remote attempt at one shard on its lane's endpoint: the health
  // gate, the oversize check, then up to max_attempts_per_shard round-trips
  // (reconnecting as needed). Fills *result and returns true on the first
  // success; false sends the shard to the in-process recovery.
  bool FarmOut(LaneState* lane, const net::Endpoint& endpoint, const std::string& endpoint_name,
               const ShardPayload<G>& shard, obs::TraceSpan* dispatch_span,
               ShardResult<G>* result) {
    if (options_.health != nullptr) {
      if (!options_.health->Dispatchable(endpoint_name)) {
        // The prober says this endpoint is dead: go straight to the
        // in-process fallback instead of burning the connect ladder.
        obs::GlobalCounter(obs::kFleetDispatchSkips)->Increment();
        return false;
      }
      // The lane's own breaker may have tripped earlier in the stream, but
      // the prober has since seen the endpoint answer: re-adopt it.
      lane->endpoint_dead = false;
    }
    if (lane->endpoint_dead) {
      return false;  // the breaker tripped earlier in this stream
    }
    wire::WireShardTask task =
        wire::MakeShardTask<G>(params_digest_, shard.shard_index, shard.base,
                               shard.compute_products, shard.data(), shard.count());
    task.trace_id = dispatch_span->context().trace_id;
    task.parent_span_id = dispatch_span->context().span_id;
    const Bytes task_payload = task.Serialize();
    // Retries resend task_payload; only the task's scalar metadata is needed
    // from here on. Dropping the per-upload copies halves the per-shard
    // memory held across the round-trip.
    task.uploads.clear();
    task.uploads.shrink_to_fit();

    // A task the authenticated frame layer would refuse (payload + MAC over
    // kMaxFramePayload) can never succeed on any verifier. (Seen only with
    // shards of ~1M+ uploads; raise num_verify_shards or lower the stream
    // shard capacity.)
    if (task_payload.size() + net::kMacTagSize > wire::kMaxFramePayload) {
      RecordFailure(shard.shard_index, endpoint_name,
                    "task frame exceeds wire payload limit (" +
                        std::to_string(task_payload.size()) +
                        " bytes); shard too large -- raise num_verify_shards");
      return false;
    }
    for (size_t attempt = 0; attempt < options_.max_attempts_per_shard; ++attempt) {
      if (attempt > 0) {
        obs::GlobalCounter(obs::kFleetRetries)->Increment();
      }
      if (!lane->conn.ok() && !Reconnect(endpoint, endpoint_name, &lane->conn,
                                         &lane->connected_before, shard.shard_index)) {
        // A whole connect ladder failed: trip the breaker. The lane keeps
        // taking shards -- it still contributes CPU through the in-process
        // fallback -- but never pays the futile connect timeouts again (a
        // blackholed endpoint would otherwise serialize
        // connect_attempts * connect_timeout_ms into EVERY shard it takes).
        // Failures were already blamed shard-by-shard inside Reconnect.
        lane->endpoint_dead = true;
        break;
      }
      std::string blame;
      if (AttemptShard(&lane->conn, task_payload, task, shard.count(), result, endpoint_name,
                       dispatch_span, &blame)) {
        obs::GlobalCounter(obs::kFleetShardsRemote)->Increment();
        std::lock_guard<std::mutex> lock(report_mutex_);
        ++report_.shards_from_remote;
        return true;
      }
      RecordFailure(shard.shard_index, endpoint_name, blame);
      net::CloseRemoteConn(&lane->conn);
    }
    return false;
  }

  // Establishes (or re-establishes) a lane's connection, with bounded
  // retries and backoff. Every failed try is blamed against `shard`.
  bool Reconnect(const net::Endpoint& endpoint, const std::string& endpoint_name,
                 net::RemoteConn* conn, bool* connected_before, size_t shard) {
    net::HandshakeOptions handshake;
    handshake.connect_timeout_ms = options_.connect_timeout_ms;
    handshake.handshake_timeout_ms = options_.handshake_timeout_ms;
    for (size_t attempt = 0; attempt < options_.connect_attempts; ++attempt) {
      if (attempt > 0 && options_.reconnect_backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.reconnect_backoff_ms));
      }
      std::string blame;
      *conn = net::ConnectAndHandshake(endpoint, auth_key_, setup_payload_,
                                       params_digest_, handshake, &blame);
      if (conn->ok()) {
        obs::GlobalCounter(obs::kFleetConnections)->Increment();
        if (*connected_before) {
          obs::GlobalCounter(obs::kFleetReconnects)->Increment();
        }
        std::lock_guard<std::mutex> lock(report_mutex_);
        ++report_.connections_established;
        if (*connected_before) {
          ++report_.reconnects;
        }
        *connected_before = true;
        return true;
      }
      RecordFailure(shard, endpoint_name, blame);
    }
    return false;
  }

  // One task round-trip on a live connection, under ONE shard_timeout_ms
  // deadline covering both the task write and the result read. Digest,
  // shard identity, range, and product presence must all match the task,
  // and every element must decode onto the group -- a remote verifier is
  // trusted with work, not with verdict integrity.
  bool AttemptShard(net::RemoteConn* conn, BytesView task_payload,
                    const wire::WireShardTask& task, size_t expected_count,
                    ShardResult<G>* out, const std::string& endpoint_name,
                    obs::TraceSpan* dispatch_span, std::string* blame) {
    const auto start = std::chrono::steady_clock::now();
    wire::WriteStatus wstatus = conn->channel.Write(wire::FrameType::kTask, task_payload,
                                                    options_.shard_timeout_ms);
    if (wstatus != wire::WriteStatus::kOk) {
      *blame = wstatus == wire::WriteStatus::kTimeout ? "task write timed out"
                                                      : "task write failed";
      return false;
    }
    const auto write_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    const int remaining_ms = static_cast<int>(
        std::max<long long>(0, options_.shard_timeout_ms - write_ms));
    wire::Frame frame;
    wire::ReadStatus status = conn->channel.Read(&frame, remaining_ms);
    if (status != wire::ReadStatus::kOk) {
      *blame = std::string("no result (") + wire::ReadStatusName(status) + ")";
      return false;
    }
    if (frame.type == wire::FrameType::kError) {
      auto error = wire::WireError::Deserialize(frame.payload);
      *blame = "server error: " + (error.has_value() ? error->message : "<malformed>");
      return false;
    }
    if (frame.type != wire::FrameType::kResult) {
      *blame = "unexpected frame type in response";
      return false;
    }
    auto wire_result = wire::WireShardResult::Deserialize(frame.payload);
    if (!wire_result.has_value()) {
      *blame = "malformed result frame";
      return false;
    }
    if (!ConstantTimeEqual(BytesView(wire_result->params_digest.data(),
                                     wire_result->params_digest.size()),
                           BytesView(params_digest_.data(), params_digest_.size())) ||
        wire_result->shard_index != task.shard_index || wire_result->base != task.base ||
        wire_result->count != expected_count ||
        wire_result->partial_products.empty() == (task.compute_products == 1)) {
      *blame = "result does not match task";
      return false;
    }
    auto result = wire::ResultFromWire<G>(config_, *wire_result);
    if (!result.has_value()) {
      *blame = "result elements fail group decoding";
      return false;
    }
    if (this->tracer_ != nullptr && !wire_result->spans.empty()) {
      // Server spans are relative to its task receipt; land them inside the
      // dispatch span on the driver's timeline.
      this->tracer_->AdoptRemote(
          wire::SpansFromWire(wire_result->spans, "server:" + endpoint_name),
          dispatch_span->start_us());
    }
    *out = std::move(*result);
    return true;
  }

  void RecordFailure(size_t shard, const std::string& endpoint, std::string reason) {
    obs::GlobalCounter(obs::kFleetBlamed)->Increment();
    std::lock_guard<std::mutex> lock(report_mutex_);
    report_.failures.push_back(RemoteFailure{shard, endpoint, std::move(reason)});
  }

  ProtocolConfig config_;
  Pedersen<G> ped_;
  RemoteFleetOptions options_;
  std::vector<net::Endpoint> endpoints_;
  Bytes auth_key_;
  Bytes setup_payload_;
  Sha256::Digest params_digest_;
  std::vector<LaneState> lanes_;  // one slot per lane
  std::mutex report_mutex_;
  RemoteFleetReport report_;
};

}  // namespace vdp

#endif  // SRC_NET_REMOTE_FLEET_H_
