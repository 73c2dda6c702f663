// Conversions between the in-memory shard-verification types (ProtocolConfig,
// ClientUploadMsg<G>, ShardResult<G>) and their group-agnostic wire mirrors
// (src/wire/wire_format.h). The wire side carries group elements as opaque
// encodings; this layer is where G::Encode/G::Decode (with strict subgroup
// checks) happen, so a server can never be fed an element off the group.
#ifndef SRC_WIRE_WIRE_CONVERT_H_
#define SRC_WIRE_WIRE_CONVERT_H_

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "src/core/messages.h"
#include "src/core/params.h"
#include "src/obs/trace.h"
#include "src/shard/shard_result.h"
#include "src/wire/wire_format.h"

namespace vdp {
namespace wire {

inline WireConfig ConfigToWire(const ProtocolConfig& config) {
  WireConfig w;
  w.epsilon_bits = std::bit_cast<uint64_t>(config.epsilon);
  w.delta_bits = std::bit_cast<uint64_t>(config.delta);
  w.num_provers = config.num_provers;
  w.num_bins = config.num_bins;
  w.morra_mode = config.morra_mode == MorraMode::kSeed ? 1 : 0;
  w.batch_verify = config.batch_verify ? 1 : 0;
  w.num_verify_shards = config.num_verify_shards;
  w.verify_workers = config.verify_workers;
  w.session_id = config.session_id;
  return w;
}

inline ProtocolConfig ConfigFromWire(const WireConfig& w) {
  ProtocolConfig config;
  config.epsilon = std::bit_cast<double>(w.epsilon_bits);
  config.delta = std::bit_cast<double>(w.delta_bits);
  config.num_provers = w.num_provers;
  config.num_bins = w.num_bins;
  config.morra_mode = w.morra_mode == 1 ? MorraMode::kSeed : MorraMode::kPedersen;
  config.batch_verify = w.batch_verify == 1;
  config.num_verify_shards = w.num_verify_shards;
  config.verify_workers = w.verify_workers;
  config.session_id = w.session_id;
  return config;
}

template <PrimeOrderGroup G>
WireSetup MakeWireSetup(const ProtocolConfig& config, const Pedersen<G>& ped) {
  WireSetup setup;
  setup.group_name = G::Name();
  setup.config = ConfigToWire(config);
  setup.pedersen_g = G::Encode(ped.params().g);
  setup.pedersen_h = G::Encode(ped.params().h);
  return setup;
}

// Reconstructs the session a setup frame describes, or nullopt when the
// setup targets a different group backend or its generators do not decode.
template <PrimeOrderGroup G>
std::optional<std::pair<ProtocolConfig, Pedersen<G>>> SessionFromWire(const WireSetup& setup) {
  if (setup.group_name != G::Name()) {
    return std::nullopt;
  }
  auto g = G::Decode(setup.pedersen_g);
  auto h = G::Decode(setup.pedersen_h);
  if (!g || !h) {
    return std::nullopt;
  }
  PedersenParams<G> params;
  params.g = *g;
  params.h = *h;
  return std::make_pair(ConfigFromWire(setup.config), Pedersen<G>(std::move(params)));
}

template <PrimeOrderGroup G>
WireShardTask MakeShardTask(const Sha256::Digest& params_digest, size_t shard_index,
                            size_t base, bool compute_products,
                            const ClientUploadMsg<G>* uploads, size_t count) {
  WireShardTask task;
  task.params_digest = params_digest;
  task.shard_index = shard_index;
  task.base = base;
  task.compute_products = compute_products ? 1 : 0;
  task.uploads.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    task.uploads.push_back(uploads[i].Serialize());
  }
  return task;
}

// Decodes a task's uploads. A malformed upload is NOT an error at this
// layer: the verifier's structural pass is the protocol's arbiter of bad
// uploads, so undecodable bytes map to an upload that fails that pass
// (empty ClientUploadMsg), keeping the rejection reason schedule identical
// to the in-process path, which never sees wire bytes at all.
template <PrimeOrderGroup G>
std::vector<ClientUploadMsg<G>> UploadsFromWire(const WireShardTask& task) {
  std::vector<ClientUploadMsg<G>> uploads;
  uploads.reserve(task.uploads.size());
  for (const Bytes& bytes : task.uploads) {
    auto upload = ClientUploadMsg<G>::Deserialize(bytes);
    uploads.push_back(upload.has_value() ? std::move(*upload) : ClientUploadMsg<G>{});
  }
  return uploads;
}

template <PrimeOrderGroup G>
WireShardResult ResultToWire(const Sha256::Digest& params_digest,
                             const ShardResult<G>& result) {
  WireShardResult w;
  w.params_digest = params_digest;
  w.shard_index = result.shard_index;
  w.base = result.base;
  w.count = result.count;
  w.accepted.assign(result.accepted.begin(), result.accepted.end());
  for (const auto& [index, reason] : result.rejections) {
    w.rejections.emplace_back(index, reason);
  }
  for (const auto& row : result.partial_products) {
    std::vector<Bytes> encoded;
    encoded.reserve(row.size());
    for (const auto& element : row) {
      encoded.push_back(G::Encode(element));
    }
    w.partial_products.push_back(std::move(encoded));
  }
  w.fallback_used = result.fallback_used ? 1 : 0;
  return w;
}

// Rebuilds a ShardResult from the wire, checking it against the session
// shape: product matrix either absent or exactly [num_provers][num_bins]
// with every element on the group. Index well-formedness was already
// enforced by WireShardResult::Deserialize.
template <PrimeOrderGroup G>
std::optional<ShardResult<G>> ResultFromWire(const ProtocolConfig& config,
                                             const WireShardResult& w) {
  ShardResult<G> result;
  result.shard_index = w.shard_index;
  result.base = w.base;
  result.count = w.count;
  result.accepted.assign(w.accepted.begin(), w.accepted.end());
  for (const auto& [index, reason] : w.rejections) {
    result.rejections.emplace_back(index, reason);
  }
  if (!w.partial_products.empty()) {
    if (w.partial_products.size() != config.num_provers) {
      return std::nullopt;
    }
    for (const auto& row : w.partial_products) {
      if (row.size() != config.num_bins) {
        return std::nullopt;
      }
      std::vector<typename G::Element> decoded;
      decoded.reserve(row.size());
      for (const Bytes& bytes : row) {
        auto element = G::Decode(bytes);
        if (!element.has_value()) {
          return std::nullopt;
        }
        decoded.push_back(*element);
      }
      result.partial_products.push_back(std::move(decoded));
    }
  }
  result.fallback_used = w.fallback_used == 1;
  return result;
}

// Spans recorded while verifying a shard, in wire form for the trailing
// extension of WireShardResult. trace_id does not travel: the adopter stamps
// its own (AdoptRemote), which is also what makes a replayed result join the
// *current* trace instead of a stale one.
inline std::vector<WireSpan> SpansToWire(const std::vector<obs::SpanRecord>& spans) {
  std::vector<WireSpan> out;
  out.reserve(spans.size());
  for (const obs::SpanRecord& s : spans) {
    if (s.span_id == 0 || s.name.empty()) {
      continue;  // not encodable; 0 / "" are reserved
    }
    WireSpan w;
    w.name = s.name;
    w.span_id = s.span_id;
    w.parent_span_id = s.parent_span_id;
    w.start_us = s.start_us;
    w.duration_us = s.duration_us;
    out.push_back(std::move(w));
  }
  return out;
}

// The in-memory form of a result's spans, stamped with which process
// recorded them ("server:host:port"). start_us stays relative to
// that process's task receipt until TraceCollector::AdoptRemote rebases it.
inline std::vector<obs::SpanRecord> SpansFromWire(const std::vector<WireSpan>& spans,
                                                  const std::string& proc) {
  std::vector<obs::SpanRecord> out;
  out.reserve(spans.size());
  for (const WireSpan& w : spans) {
    obs::SpanRecord s;
    s.name = w.name;
    s.span_id = w.span_id;
    s.parent_span_id = w.parent_span_id;
    s.start_us = w.start_us;
    s.duration_us = w.duration_us;
    s.proc = proc;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace wire
}  // namespace vdp

#endif  // SRC_WIRE_WIRE_CONVERT_H_
