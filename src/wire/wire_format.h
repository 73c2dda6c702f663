// Versioned binary wire format for multi-process shard verification.
//
// The sharded pipeline (src/shard/shard_result.h) reduces each shard of the
// upload stream to a compact, self-contained ShardResult. This module takes
// that value across the process boundary: a driver serializes shard *tasks*
// (params digest, shard range, uploads), verify_server processes return
// shard *results* (accepted indices, rejection reasons, partial commitment
// products), and the existing deterministic combiner ingests the decoded
// results bit-identically to the in-process path. The same frames will carry
// over a socket unchanged, which is what makes this the stepping stone to
// multi-machine verification.
//
// Every message travels inside a length-prefixed frame:
//
//   magic "VDPW" (4) | version u8 | frame type u8 | payload length u32 LE
//
// followed by `payload length` bytes. Unknown versions and unknown frame
// types are rejected at the header, before any payload is interpreted, so a
// version bump can never be silently misparsed. Payload structs are
// group-agnostic: group elements ride as opaque byte blobs (producers use
// G::Encode; consumers run G::Decode with its strict subgroup checks), so
// the wire layer never depends on a particular backend.
//
// Decoding is total: every Deserialize returns std::nullopt on any
// malformed, truncated, or out-of-spec input -- never UB, never a throw.
// Well-formedness is part of decoding: a WireShardResult whose indices are
// out of range, unsorted, or double-counted does not decode.
#ifndef SRC_WIRE_WIRE_FORMAT_H_
#define SRC_WIRE_WIRE_FORMAT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/sha256.h"

namespace vdp {
namespace wire {

// Bumped on any incompatible change to the frame header or payload layout.
inline constexpr uint8_t kWireVersion = 1;

// "VDPW" in little-endian byte order.
inline constexpr std::array<uint8_t, 4> kMagic = {0x56, 0x44, 0x50, 0x57};

// magic + version + type + payload length.
inline constexpr size_t kFrameHeaderSize = 10;

// Upper bound on a frame payload; a header announcing more than this is
// malformed (protects a reader from attacker-controlled allocations).
inline constexpr uint32_t kMaxFramePayload = 256u * 1024 * 1024;

enum class FrameType : uint8_t {
  // 1 is reserved: it was the retired pipe worker's hello, and a type-1
  // frame is rejected at the header as unknown.
  kSetup = 2,   // driver -> server, session parameters
  kTask = 3,    // driver -> server, one shard to verify
  kResult = 4,  // server -> driver, the shard's verdict
  kError = 5,   // server -> driver, diagnostic before giving up on a task
  // Socket-transport bootstrap (src/net/): the hello pair carries the nonces
  // the session MAC key is derived from, the ack binds the setup digest under
  // that key.
  kServerHello = 6,  // server -> driver, first frame after accept
  kClientHello = 7,  // driver -> server, answers the server hello
  kSetupAck = 8,     // server -> driver, authenticated echo of the setup digest
  // Live-introspection admin plane (still wire v1, socket transport only).
  // These travel MAC'd under the session key like every other post-hello
  // frame, but on the admin plane's own sequence counters (src/net/auth.h),
  // so probing a server mid-stream can never perturb the task/result
  // sequence space. A prober needs no kSetup: the hello pair plus the MAC
  // already prove fleet membership.
  kHealthProbe = 9,    // prober -> server, nonce challenge
  kHealthReply = 10,   // server -> prober, nonce echo + liveness snapshot
  kStatsRequest = 11,  // prober -> server, ask for a metrics/span dump
  kStatsReply = 12,    // server -> prober, JSON-serialized registry snapshot
};

struct FrameHeader {
  FrameType type = FrameType::kSetup;
  uint32_t payload_size = 0;
};

struct Frame {
  FrameType type = FrameType::kSetup;
  Bytes payload;
};

// Serializes header + payload into one buffer ready for the pipe.
Bytes EncodeFrame(FrameType type, BytesView payload);

// Just the kFrameHeaderSize header announcing a payload of the given size
// (frame_io streams header and payload separately to avoid concatenating
// large frames).
Bytes EncodeFrameHeader(FrameType type, uint32_t payload_size);

// Validates magic, version, frame type, and the payload bound. Exactly
// kFrameHeaderSize bytes are consumed; nullopt on any mismatch.
std::optional<FrameHeader> DecodeFrameHeader(BytesView header);

// Decodes one complete frame (header + payload, no trailing bytes).
std::optional<Frame> DecodeFrame(BytesView data);

// --- Session setup -----------------------------------------------------

// Group-agnostic mirror of ProtocolConfig. Doubles travel as their IEEE-754
// bit patterns so the encoding is exact and byte-stable.
struct WireConfig {
  uint64_t epsilon_bits = 0;
  uint64_t delta_bits = 0;
  uint64_t num_provers = 1;
  uint64_t num_bins = 1;
  uint8_t morra_mode = 0;
  uint8_t batch_verify = 0;
  uint64_t num_verify_shards = 1;
  // Reserved 8-byte slot (it once carried a local fleet size): written as 0,
  // still parsed, never read.
  uint64_t reserved = 0;
  std::string session_id;

  void SerializeInto(Writer* w) const;
  static std::optional<WireConfig> DeserializeFrom(Reader* r);

  bool operator==(const WireConfig&) const = default;
};

// Everything a server needs to verify shards of one session: the group
// backend by name, the protocol config, and the Pedersen generators.
struct WireSetup {
  std::string group_name;
  WireConfig config;
  Bytes pedersen_g;  // G::Encode of the commitment bases
  Bytes pedersen_h;

  Bytes Serialize() const;
  static std::optional<WireSetup> Deserialize(BytesView data);

  // SHA-256 of the serialized setup; every task and result carries it so a
  // server can prove it verified under the parameters the driver meant.
  Sha256::Digest Digest() const;

  bool operator==(const WireSetup&) const = default;
};

// --- Shard task / result ------------------------------------------------

// One finished trace span crossing the process boundary inside a shard
// result (src/obs/trace.h is the in-memory form). start_us is relative to
// the *recording* process's receipt of the task; the driver rebases it onto
// its own timeline when it adopts the spans, so clocks are never compared
// across machines.
struct WireSpan {
  std::string name;
  uint64_t span_id = 0;  // nonzero (0 is "no span" everywhere else)
  uint64_t parent_span_id = 0;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;

  bool operator==(const WireSpan&) const = default;
};

// One contiguous shard of the broadcast upload stream, addressed to any
// server holding the matching setup.
//
// Trace extension (still wire v1): when the driver is tracing, the task
// carries the (trace_id, parent span id) its remote spans should hang from
// as optional trailing fields. A task with trace_id == 0 serializes without
// them -- byte-identical to the pre-extension encoding -- and the decoder
// rejects an explicitly-encoded zero trace_id, so every payload still has
// exactly one valid encoding (the canonical re-encode property the fuzz
// suite pins).
struct WireShardTask {
  std::array<uint8_t, Sha256::kDigestSize> params_digest{};
  uint64_t shard_index = 0;
  uint64_t base = 0;  // global index of uploads[0]
  uint8_t compute_products = 1;
  std::vector<Bytes> uploads;  // each: ClientUploadMsg<G>::Serialize()
  uint64_t trace_id = 0;        // 0 = not tracing (fields absent on the wire)
  uint64_t parent_span_id = 0;  // driver-side span the remote spans join

  Bytes Serialize() const;
  static std::optional<WireShardTask> Deserialize(BytesView data);

  bool operator==(const WireShardTask&) const = default;
};

// The wire form of ShardResult<G> (src/shard/shard_result.h).
//
// Decoding enforces the combiner's invariants: accepted and rejection
// indices strictly ascending, every index within [base, base + count), and
// accepted + rejections partitioning the shard exactly.
//
// Trace extension (still wire v1): spans the remote process recorded while
// verifying this shard ride back as an optional trailing list. An empty
// list serializes as nothing -- byte-identical to the pre-extension
// encoding -- and the decoder rejects an explicitly-encoded empty list, so
// the canonical re-encode property holds.
struct WireShardResult {
  std::array<uint8_t, Sha256::kDigestSize> params_digest{};
  uint64_t shard_index = 0;
  uint64_t base = 0;
  uint64_t count = 0;
  std::vector<uint64_t> accepted;  // global indices, strictly ascending
  // (global index, reason), strictly ascending by index.
  std::vector<std::pair<uint64_t, std::string>> rejections;
  // [num_provers][num_bins] encoded elements; empty when the task said
  // compute_products = 0.
  std::vector<std::vector<Bytes>> partial_products;
  uint8_t fallback_used = 0;
  // Spans recorded by the remote verifier; empty when it was not asked to
  // trace (task trace_id == 0).
  std::vector<WireSpan> spans;

  Bytes Serialize() const;
  static std::optional<WireShardResult> Deserialize(BytesView data);

  bool operator==(const WireShardResult&) const = default;
};

// --- Socket-transport handshake (src/net/) ------------------------------
//
// Connection bootstrap for remote verifiers. The server speaks first, the
// driver answers, and both sides derive a session MAC key from the fleet's
// pre-shared secret and the two nonces (net::DeriveSessionKey). Every frame after the hello pair -- setup, ack,
// tasks, results -- travels MAC-bound on that key (net::AuthChannel), which
// is what the setup digest alone cannot provide: the digest binds
// *parameters*, the session MAC binds *identity*.

inline constexpr size_t kHandshakeNonceSize = 32;

// Server -> driver on accept: wire version, pid and server id (blame
// reports), and the server's half of the session-key nonce material.
struct WireServerHello {
  uint8_t version = kWireVersion;
  uint64_t pid = 0;
  uint64_t server_id = 0;
  std::array<uint8_t, kHandshakeNonceSize> nonce{};

  Bytes Serialize() const;
  static std::optional<WireServerHello> Deserialize(BytesView data);

  bool operator==(const WireServerHello&) const = default;
};

// Driver -> server: the driver's wire version and nonce half.
struct WireClientHello {
  uint8_t version = kWireVersion;
  std::array<uint8_t, kHandshakeNonceSize> nonce{};

  Bytes Serialize() const;
  static std::optional<WireClientHello> Deserialize(BytesView data);

  bool operator==(const WireClientHello&) const = default;
};

// Server -> driver, first authenticated server frame: echoes the digest of
// the setup it just installed. A driver that verifies the MAC and the digest
// knows the server holds the shared secret AND the exact parameters; a stale
// digest (server still on an old session's setup) is rejected with blame.
struct WireSetupAck {
  std::array<uint8_t, Sha256::kDigestSize> params_digest{};
  uint64_t server_id = 0;

  Bytes Serialize() const;
  static std::optional<WireSetupAck> Deserialize(BytesView data);

  bool operator==(const WireSetupAck&) const = default;
};

// --- Live-introspection admin plane --------------------------------------
//
// Health probes and stats requests (PR 10): an authenticated side channel
// into a running verify_server. A probe is a nonce challenge; the reply
// echoes the nonce (binding reply to probe even across a reconnect) and
// carries the liveness facts the fleet's HealthRegistry feeds on. A stats
// request pulls the server's full MetricsRegistry snapshot plus recent
// spans, serialized as one JSON document by src/obs/json.h.

// Prober -> server. The nonce is caller-chosen (probers draw it from
// SecureRng); zero is rejected so "no nonce" can never masquerade as one.
struct WireHealthProbe {
  uint64_t nonce = 0;

  Bytes Serialize() const;
  static std::optional<WireHealthProbe> Deserialize(BytesView data);

  bool operator==(const WireHealthProbe&) const = default;
};

// Server -> prober. params_digest is the digest of the last setup this
// server installed (all zeros before any session), so a prober can detect a
// server stuck on a stale epoch. uptime_ms is steady-clock time since the
// daemon started -- a value that *decreases* between probes means the
// process restarted behind its endpoint.
struct WireHealthReply {
  uint64_t nonce = 0;  // echo of the probe's nonce, nonzero
  uint64_t server_id = 0;
  uint64_t uptime_ms = 0;
  std::array<uint8_t, Sha256::kDigestSize> params_digest{};
  uint64_t inflight_shards = 0;  // tasks being verified right now
  uint64_t queue_depth = 0;      // live authenticated task sessions

  Bytes Serialize() const;
  static std::optional<WireHealthReply> Deserialize(BytesView data);

  bool operator==(const WireHealthReply&) const = default;
};

// Prober -> server. include_spans asks for the server's recent trace spans
// alongside the metrics snapshot.
struct WireStatsRequest {
  uint8_t include_spans = 0;

  Bytes Serialize() const;
  static std::optional<WireStatsRequest> Deserialize(BytesView data);

  bool operator==(const WireStatsRequest&) const = default;
};

// Server -> prober: one JSON document (schema vdp.stats/v1, written by
// net::StatsToJson) holding the registry snapshot and optional spans. JSON
// rides as a string so the wire layer stays schema-agnostic; consumers
// parse with the total src/obs/json.h parser.
struct WireStatsReply {
  uint64_t server_id = 0;
  std::string stats_json;  // nonempty

  Bytes Serialize() const;
  static std::optional<WireStatsReply> Deserialize(BytesView data);

  bool operator==(const WireStatsReply&) const = default;
};

// Worker-side diagnostic accompanying a refusal (bad digest, undecodable
// upload bytes). The driver logs it into the blame report.
struct WireError {
  std::string message;

  Bytes Serialize() const;
  static std::optional<WireError> Deserialize(BytesView data);
};

}  // namespace wire
}  // namespace vdp

#endif  // SRC_WIRE_WIRE_FORMAT_H_
