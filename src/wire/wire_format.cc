#include "src/wire/wire_format.h"

#include <algorithm>
#include <cstring>

namespace vdp {
namespace wire {

namespace {

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kSetup) &&
         t <= static_cast<uint8_t>(FrameType::kStatsReply);
}

// Strings ride as blobs; decoding rejects embedded NULs so reasons and
// session ids round-trip through C string handling unchanged.
void PutString(Writer* w, const std::string& s) {
  w->Blob(ToBytes(s));
}

std::optional<std::string> GetString(Reader* r) {
  auto blob = r->Blob();
  if (!blob.has_value()) {
    return std::nullopt;
  }
  for (uint8_t b : *blob) {
    if (b == 0) {
      return std::nullopt;
    }
  }
  return std::string(blob->begin(), blob->end());
}

std::optional<std::array<uint8_t, Sha256::kDigestSize>> GetDigest(Reader* r) {
  auto raw = r->Raw(Sha256::kDigestSize);
  if (!raw.has_value()) {
    return std::nullopt;
  }
  std::array<uint8_t, Sha256::kDigestSize> digest{};
  std::memcpy(digest.data(), raw->data(), Sha256::kDigestSize);
  return digest;
}

}  // namespace

Bytes EncodeFrame(FrameType type, BytesView payload) {
  Bytes out = EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Bytes EncodeFrameHeader(FrameType type, uint32_t payload_size) {
  Writer w;
  w.Raw(BytesView(kMagic.data(), kMagic.size()));
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U32(payload_size);
  return w.Take();
}

std::optional<FrameHeader> DecodeFrameHeader(BytesView header) {
  Reader r(header);
  auto magic = r.Raw(kMagic.size());
  if (!magic.has_value() || !std::equal(magic->begin(), magic->end(), kMagic.begin())) {
    return std::nullopt;
  }
  auto version = r.U8();
  auto type = r.U8();
  auto size = r.U32();
  if (!version || !type || !size) {
    return std::nullopt;
  }
  if (*version != kWireVersion || !ValidFrameType(*type) || *size > kMaxFramePayload) {
    return std::nullopt;
  }
  FrameHeader h;
  h.type = static_cast<FrameType>(*type);
  h.payload_size = *size;
  return h;
}

std::optional<Frame> DecodeFrame(BytesView data) {
  if (data.size() < kFrameHeaderSize) {
    return std::nullopt;
  }
  auto header = DecodeFrameHeader(data.subspan(0, kFrameHeaderSize));
  if (!header.has_value() || data.size() - kFrameHeaderSize != header->payload_size) {
    return std::nullopt;
  }
  Frame f;
  f.type = header->type;
  f.payload.assign(data.begin() + kFrameHeaderSize, data.end());
  return f;
}

// --- WireConfig ---------------------------------------------------------

void WireConfig::SerializeInto(Writer* w) const {
  w->U64(epsilon_bits);
  w->U64(delta_bits);
  w->U64(num_provers);
  w->U64(num_bins);
  w->U8(morra_mode);
  w->U8(batch_verify);
  w->U64(num_verify_shards);
  w->U64(reserved);
  PutString(w, session_id);
}

std::optional<WireConfig> WireConfig::DeserializeFrom(Reader* r) {
  WireConfig c;
  auto epsilon = r->U64();
  auto delta = r->U64();
  auto provers = r->U64();
  auto bins = r->U64();
  auto morra = r->U8();
  auto batch = r->U8();
  auto shards = r->U64();
  auto reserved = r->U64();
  if (!epsilon || !delta || !provers || !bins || !morra || !batch || !shards || !reserved) {
    return std::nullopt;
  }
  auto session = GetString(r);
  if (!session.has_value()) {
    return std::nullopt;
  }
  if (*provers == 0 || *bins == 0 || *morra > 1 || *batch > 1 || *shards == 0) {
    return std::nullopt;
  }
  c.epsilon_bits = *epsilon;
  c.delta_bits = *delta;
  c.num_provers = *provers;
  c.num_bins = *bins;
  c.morra_mode = *morra;
  c.batch_verify = *batch;
  c.num_verify_shards = *shards;
  c.reserved = *reserved;
  c.session_id = std::move(*session);
  return c;
}

// --- WireSetup ----------------------------------------------------------

Bytes WireSetup::Serialize() const {
  Writer w;
  PutString(&w, group_name);
  config.SerializeInto(&w);
  w.Blob(pedersen_g);
  w.Blob(pedersen_h);
  return w.Take();
}

std::optional<WireSetup> WireSetup::Deserialize(BytesView data) {
  Reader r(data);
  WireSetup s;
  auto name = GetString(&r);
  if (!name.has_value() || name->empty()) {
    return std::nullopt;
  }
  auto config = WireConfig::DeserializeFrom(&r);
  if (!config.has_value()) {
    return std::nullopt;
  }
  auto g = r.Blob();
  auto h = r.Blob();
  if (!g || !h || g->empty() || h->empty() || !r.AtEnd()) {
    return std::nullopt;
  }
  s.group_name = std::move(*name);
  s.config = std::move(*config);
  s.pedersen_g = std::move(*g);
  s.pedersen_h = std::move(*h);
  return s;
}

Sha256::Digest WireSetup::Digest() const {
  return Sha256::TaggedHash(StrView("vdp/wire-setup"), Serialize());
}

// --- WireShardTask ------------------------------------------------------

Bytes WireShardTask::Serialize() const {
  Writer w;
  w.Raw(BytesView(params_digest.data(), params_digest.size()));
  w.U64(shard_index);
  w.U64(base);
  w.U8(compute_products);
  w.U32(static_cast<uint32_t>(uploads.size()));
  for (const Bytes& u : uploads) {
    w.Blob(u);
  }
  // Optional trace extension: absent entirely when not tracing, so the
  // untraced encoding is byte-identical to pre-extension frames.
  if (trace_id != 0) {
    w.U64(trace_id);
    w.U64(parent_span_id);
  }
  return w.Take();
}

std::optional<WireShardTask> WireShardTask::Deserialize(BytesView data) {
  Reader r(data);
  WireShardTask t;
  auto digest = GetDigest(&r);
  auto shard_index = r.U64();
  auto base = r.U64();
  auto products = r.U8();
  auto count = r.U32();
  if (!digest || !shard_index || !base || !products || !count || *products > 1) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto blob = r.Blob();
    if (!blob.has_value()) {
      return std::nullopt;
    }
    t.uploads.push_back(std::move(*blob));
  }
  if (!r.AtEnd()) {
    // Trace extension: both fields or neither, nothing after, and an
    // explicitly-encoded zero trace_id is rejected (it must be absent).
    auto trace_id = r.U64();
    auto parent_span = r.U64();
    if (!trace_id || !parent_span || *trace_id == 0 || !r.AtEnd()) {
      return std::nullopt;
    }
    t.trace_id = *trace_id;
    t.parent_span_id = *parent_span;
  }
  t.params_digest = *digest;
  t.shard_index = *shard_index;
  t.base = *base;
  t.compute_products = *products;
  return t;
}

// --- WireShardResult ----------------------------------------------------

Bytes WireShardResult::Serialize() const {
  Writer w;
  w.Raw(BytesView(params_digest.data(), params_digest.size()));
  w.U64(shard_index);
  w.U64(base);
  w.U64(count);
  w.U32(static_cast<uint32_t>(accepted.size()));
  for (uint64_t index : accepted) {
    w.U64(index);
  }
  w.U32(static_cast<uint32_t>(rejections.size()));
  for (const auto& [index, reason] : rejections) {
    w.U64(index);
    PutString(&w, reason);
  }
  w.U32(static_cast<uint32_t>(partial_products.size()));
  w.U32(partial_products.empty() ? 0
                                 : static_cast<uint32_t>(partial_products[0].size()));
  for (const auto& row : partial_products) {
    for (const Bytes& element : row) {
      w.Blob(element);
    }
  }
  w.U8(fallback_used);
  // Optional trace extension: absent entirely when no spans were recorded.
  if (!spans.empty()) {
    w.U32(static_cast<uint32_t>(spans.size()));
    for (const WireSpan& span : spans) {
      PutString(&w, span.name);
      w.U64(span.span_id);
      w.U64(span.parent_span_id);
      w.U64(span.start_us);
      w.U64(span.duration_us);
    }
  }
  return w.Take();
}

std::optional<WireShardResult> WireShardResult::Deserialize(BytesView data) {
  Reader r(data);
  WireShardResult out;
  auto digest = GetDigest(&r);
  auto shard_index = r.U64();
  auto base = r.U64();
  auto count = r.U64();
  if (!digest || !shard_index || !base || !count) {
    return std::nullopt;
  }
  // The shard covers [base, base + count); overflow here means garbage.
  if (*base > UINT64_MAX - *count) {
    return std::nullopt;
  }
  const uint64_t end = *base + *count;

  auto n_accepted = r.U32();
  if (!n_accepted.has_value()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *n_accepted; ++i) {
    auto index = r.U64();
    if (!index || *index < *base || *index >= end ||
        (!out.accepted.empty() && *index <= out.accepted.back())) {
      return std::nullopt;
    }
    out.accepted.push_back(*index);
  }

  auto n_rejected = r.U32();
  if (!n_rejected.has_value()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *n_rejected; ++i) {
    auto index = r.U64();
    if (!index || *index < *base || *index >= end ||
        (!out.rejections.empty() && *index <= out.rejections.back().first)) {
      return std::nullopt;
    }
    auto reason = GetString(&r);
    if (!reason.has_value()) {
      return std::nullopt;
    }
    out.rejections.emplace_back(*index, std::move(*reason));
  }

  // accepted and rejections must partition the shard: disjoint (checked by
  // the merge below) and jointly covering all `count` indices.
  if (static_cast<uint64_t>(out.accepted.size()) + out.rejections.size() != *count) {
    return std::nullopt;
  }
  size_t ai = 0;
  size_t ri = 0;
  for (uint64_t index = *base; index < end; ++index) {
    if (ai < out.accepted.size() && out.accepted[ai] == index) {
      ++ai;
    } else if (ri < out.rejections.size() && out.rejections[ri].first == index) {
      ++ri;
    } else {
      return std::nullopt;
    }
  }

  auto rows = r.U32();
  auto cols = r.U32();
  if (!rows || !cols) {
    return std::nullopt;
  }
  if ((*rows == 0) != (*cols == 0)) {
    return std::nullopt;
  }
  for (uint32_t k = 0; k < *rows; ++k) {
    std::vector<Bytes> row;
    for (uint32_t m = 0; m < *cols; ++m) {
      auto blob = r.Blob();
      if (!blob.has_value() || blob->empty()) {
        return std::nullopt;
      }
      row.push_back(std::move(*blob));
    }
    out.partial_products.push_back(std::move(row));
  }

  auto fallback = r.U8();
  if (!fallback || *fallback > 1) {
    return std::nullopt;
  }
  if (!r.AtEnd()) {
    // Trace extension: an explicitly-encoded empty list is rejected (empty
    // must be absent), names are nonempty, span ids nonzero -- one valid
    // encoding per payload.
    auto n_spans = r.U32();
    if (!n_spans || *n_spans == 0) {
      return std::nullopt;
    }
    for (uint32_t i = 0; i < *n_spans; ++i) {
      WireSpan span;
      auto name = GetString(&r);
      auto span_id = r.U64();
      auto parent = r.U64();
      auto start_us = r.U64();
      auto duration_us = r.U64();
      if (!name || name->empty() || !span_id || *span_id == 0 || !parent || !start_us ||
          !duration_us) {
        return std::nullopt;
      }
      span.name = std::move(*name);
      span.span_id = *span_id;
      span.parent_span_id = *parent;
      span.start_us = *start_us;
      span.duration_us = *duration_us;
      out.spans.push_back(std::move(span));
    }
    if (!r.AtEnd()) {
      return std::nullopt;
    }
  }
  out.params_digest = *digest;
  out.shard_index = *shard_index;
  out.base = *base;
  out.count = *count;
  out.fallback_used = *fallback;
  return out;
}

// --- Socket-transport handshake -----------------------------------------

namespace {

std::optional<std::array<uint8_t, kHandshakeNonceSize>> GetNonce(Reader* r) {
  auto raw = r->Raw(kHandshakeNonceSize);
  if (!raw.has_value()) {
    return std::nullopt;
  }
  std::array<uint8_t, kHandshakeNonceSize> nonce{};
  std::memcpy(nonce.data(), raw->data(), kHandshakeNonceSize);
  return nonce;
}

}  // namespace

Bytes WireServerHello::Serialize() const {
  Writer w;
  w.U8(version);
  w.U64(pid);
  w.U64(server_id);
  w.Raw(BytesView(nonce.data(), nonce.size()));
  return w.Take();
}

std::optional<WireServerHello> WireServerHello::Deserialize(BytesView data) {
  Reader r(data);
  auto version = r.U8();
  auto pid = r.U64();
  auto server_id = r.U64();
  auto nonce = GetNonce(&r);
  if (!version || !pid || !server_id || !nonce || !r.AtEnd()) {
    return std::nullopt;
  }
  WireServerHello hello;
  hello.version = *version;
  hello.pid = *pid;
  hello.server_id = *server_id;
  hello.nonce = *nonce;
  return hello;
}

Bytes WireClientHello::Serialize() const {
  Writer w;
  w.U8(version);
  w.Raw(BytesView(nonce.data(), nonce.size()));
  return w.Take();
}

std::optional<WireClientHello> WireClientHello::Deserialize(BytesView data) {
  Reader r(data);
  auto version = r.U8();
  auto nonce = GetNonce(&r);
  if (!version || !nonce || !r.AtEnd()) {
    return std::nullopt;
  }
  WireClientHello hello;
  hello.version = *version;
  hello.nonce = *nonce;
  return hello;
}

Bytes WireSetupAck::Serialize() const {
  Writer w;
  w.Raw(BytesView(params_digest.data(), params_digest.size()));
  w.U64(server_id);
  return w.Take();
}

std::optional<WireSetupAck> WireSetupAck::Deserialize(BytesView data) {
  Reader r(data);
  auto digest = GetDigest(&r);
  auto server_id = r.U64();
  if (!digest || !server_id || !r.AtEnd()) {
    return std::nullopt;
  }
  WireSetupAck ack;
  ack.params_digest = *digest;
  ack.server_id = *server_id;
  return ack;
}

// --- Live-introspection admin plane --------------------------------------

Bytes WireHealthProbe::Serialize() const {
  Writer w;
  w.U64(nonce);
  return w.Take();
}

std::optional<WireHealthProbe> WireHealthProbe::Deserialize(BytesView data) {
  Reader r(data);
  auto nonce = r.U64();
  if (!nonce || *nonce == 0 || !r.AtEnd()) {
    return std::nullopt;
  }
  WireHealthProbe probe;
  probe.nonce = *nonce;
  return probe;
}

Bytes WireHealthReply::Serialize() const {
  Writer w;
  w.U64(nonce);
  w.U64(server_id);
  w.U64(uptime_ms);
  w.Raw(BytesView(params_digest.data(), params_digest.size()));
  w.U64(inflight_shards);
  w.U64(queue_depth);
  return w.Take();
}

std::optional<WireHealthReply> WireHealthReply::Deserialize(BytesView data) {
  Reader r(data);
  auto nonce = r.U64();
  auto server_id = r.U64();
  auto uptime = r.U64();
  auto digest = GetDigest(&r);
  auto inflight = r.U64();
  auto queue = r.U64();
  // Optional has-value checks, not byte compares: nothing here is secret.
  if (!nonce || *nonce == 0 || !server_id || !uptime || !digest ||  // vdp-lint: allow(ct-compare)
      !inflight || !queue || !r.AtEnd()) {
    return std::nullopt;
  }
  WireHealthReply reply;
  reply.nonce = *nonce;
  reply.server_id = *server_id;
  reply.uptime_ms = *uptime;
  reply.params_digest = *digest;
  reply.inflight_shards = *inflight;
  reply.queue_depth = *queue;
  return reply;
}

Bytes WireStatsRequest::Serialize() const {
  Writer w;
  w.U8(include_spans);
  return w.Take();
}

std::optional<WireStatsRequest> WireStatsRequest::Deserialize(BytesView data) {
  Reader r(data);
  auto spans = r.U8();
  if (!spans || *spans > 1 || !r.AtEnd()) {
    return std::nullopt;
  }
  WireStatsRequest request;
  request.include_spans = *spans;
  return request;
}

Bytes WireStatsReply::Serialize() const {
  Writer w;
  w.U64(server_id);
  PutString(&w, stats_json);
  return w.Take();
}

std::optional<WireStatsReply> WireStatsReply::Deserialize(BytesView data) {
  Reader r(data);
  auto server_id = r.U64();
  auto json = GetString(&r);
  if (!server_id || !json || json->empty() || !r.AtEnd()) {
    return std::nullopt;
  }
  WireStatsReply reply;
  reply.server_id = *server_id;
  reply.stats_json = std::move(*json);
  return reply;
}

// --- WireError ----------------------------------------------------------

Bytes WireError::Serialize() const {
  Writer w;
  PutString(&w, message);
  return w.Take();
}

std::optional<WireError> WireError::Deserialize(BytesView data) {
  Reader r(data);
  auto message = GetString(&r);
  if (!message.has_value() || !r.AtEnd()) {
    return std::nullopt;
  }
  WireError e;
  e.message = std::move(*message);
  return e;
}

}  // namespace wire
}  // namespace vdp
