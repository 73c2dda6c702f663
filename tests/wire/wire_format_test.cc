// Property and fuzz coverage for the multi-process wire format
// (src/wire/wire_format.h).
//
// Properties under test, over seeded random values:
//   - Round trip: Serialize -> Deserialize -> Serialize is bit-identical.
//   - Canonicality: any buffer Deserialize accepts re-serializes to exactly
//     that buffer (there is one encoding per value).
//   - Totality: every single-byte truncation and a corpus of bit-flipped
//     buffers either fail cleanly (nullopt) or decode to a well-formed
//     value -- never UB or a crash. CI runs this suite under ASan/UBSan.
#include <gtest/gtest.h>
#include <unistd.h>

#include "src/common/rng.h"
#include "src/net/introspect.h"
#include "src/obs/json.h"
#include "src/wire/frame_io.h"
#include "src/wire/wire_convert.h"
#include "src/wire/wire_format.h"

namespace vdp {
namespace wire {
namespace {

// --- random value generators (seeded, deterministic) -------------------

Bytes RandomBlob(SecureRng& rng, size_t max_len) {
  return rng.RandomBytes(rng.UniformBelow(max_len) + 1);
}

std::string RandomReason(SecureRng& rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz -:/";
  std::string s;
  size_t len = rng.UniformBelow(24) + 1;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.UniformBelow(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

WireConfig RandomConfig(SecureRng& rng) {
  WireConfig c;
  c.epsilon_bits = rng.NextU64();
  c.delta_bits = rng.NextU64();
  c.num_provers = rng.UniformBelow(8) + 1;
  c.num_bins = rng.UniformBelow(16) + 1;
  c.morra_mode = static_cast<uint8_t>(rng.UniformBelow(2));
  c.batch_verify = static_cast<uint8_t>(rng.UniformBelow(2));
  c.num_verify_shards = rng.UniformBelow(64) + 1;
  c.reserved = rng.UniformBelow(16);
  c.session_id = RandomReason(rng);
  return c;
}

WireSetup RandomSetup(SecureRng& rng) {
  WireSetup s;
  s.group_name = RandomReason(rng);
  s.config = RandomConfig(rng);
  s.pedersen_g = RandomBlob(rng, 64);
  s.pedersen_h = RandomBlob(rng, 64);
  return s;
}

WireShardTask RandomTask(SecureRng& rng) {
  WireShardTask t;
  rng.FillBytes(t.params_digest.data(), t.params_digest.size());
  t.shard_index = rng.UniformBelow(1024);
  t.base = rng.UniformBelow(1u << 20);
  t.compute_products = static_cast<uint8_t>(rng.UniformBelow(2));
  size_t n = rng.UniformBelow(8);
  for (size_t i = 0; i < n; ++i) {
    t.uploads.push_back(RandomBlob(rng, 96));
  }
  // Half the corpus exercises the optional trace extension.
  if (rng.NextBit()) {
    t.trace_id = rng.NextU64() | 1;  // nonzero (0 means "absent")
    t.parent_span_id = rng.NextU64();
  }
  return t;
}

WireSpan RandomSpan(SecureRng& rng) {
  WireSpan s;
  s.name = RandomReason(rng);
  s.span_id = rng.NextU64() | 1;  // nonzero by construction
  s.parent_span_id = rng.NextU64();
  s.start_us = rng.UniformBelow(1u << 30);
  s.duration_us = rng.UniformBelow(1u << 30);
  return s;
}

WireShardResult RandomResult(SecureRng& rng) {
  WireShardResult r;
  rng.FillBytes(r.params_digest.data(), r.params_digest.size());
  r.shard_index = rng.UniformBelow(1024);
  r.base = rng.UniformBelow(1u << 20);
  r.count = rng.UniformBelow(40);
  // Partition [base, base + count): each index lands in accepted or
  // rejections, both kept ascending -- the invariant Deserialize enforces.
  for (uint64_t index = r.base; index < r.base + r.count; ++index) {
    if (rng.NextBit()) {
      r.accepted.push_back(index);
    } else {
      r.rejections.emplace_back(index, RandomReason(rng));
    }
  }
  if (rng.NextBit()) {
    size_t rows = rng.UniformBelow(3) + 1;
    size_t cols = rng.UniformBelow(4) + 1;
    for (size_t k = 0; k < rows; ++k) {
      std::vector<Bytes> row;
      for (size_t m = 0; m < cols; ++m) {
        row.push_back(RandomBlob(rng, 48));
      }
      r.partial_products.push_back(std::move(row));
    }
  }
  r.fallback_used = static_cast<uint8_t>(rng.UniformBelow(2));
  // Half the corpus carries remote trace spans (the optional extension).
  if (rng.NextBit()) {
    size_t n_spans = rng.UniformBelow(5) + 1;
    for (size_t i = 0; i < n_spans; ++i) {
      r.spans.push_back(RandomSpan(rng));
    }
  }
  return r;
}

// The session opener's hellos and ack plus the admin plane's four
// payloads, one random value each, handed to `check` (a generic lambda).
template <typename Check>
void ForEachHandshakeAndAdminValue(SecureRng& rng, Check&& check) {
  WireServerHello server_hello;
  server_hello.version = static_cast<uint8_t>(rng.UniformBelow(4));
  server_hello.pid = rng.NextU64();
  server_hello.server_id = rng.UniformBelow(16);
  rng.FillBytes(server_hello.nonce.data(), server_hello.nonce.size());
  check(server_hello);

  WireClientHello client_hello;
  rng.FillBytes(client_hello.nonce.data(), client_hello.nonce.size());
  check(client_hello);

  WireSetupAck ack;
  rng.FillBytes(ack.params_digest.data(), ack.params_digest.size());
  ack.server_id = rng.UniformBelow(16);
  check(ack);

  WireHealthProbe probe;
  probe.nonce = rng.NextU64() | 1;  // nonzero
  check(probe);

  WireHealthReply reply;
  reply.nonce = probe.nonce;
  reply.server_id = rng.UniformBelow(16);
  reply.uptime_ms = rng.UniformBelow(1u << 30);
  rng.FillBytes(reply.params_digest.data(), reply.params_digest.size());
  reply.inflight_shards = rng.UniformBelow(64);
  reply.queue_depth = rng.UniformBelow(64);
  check(reply);

  WireStatsRequest request;
  request.include_spans = static_cast<uint8_t>(rng.UniformBelow(2));
  check(request);

  WireStatsReply stats;
  stats.server_id = rng.UniformBelow(16);
  stats.stats_json = "{\"schema\":\"vdp.stats/v1\",\"counters\":{\"" + RandomReason(rng) +
                     "\":" + std::to_string(rng.UniformBelow(1000)) +
                     "},\"gauges\":{},\"histograms\":{}}";
  check(stats);
}

// --- round-trip properties ----------------------------------------------

TEST(WireRoundTrip, ErrorConfig) {
  SecureRng rng("wire-roundtrip-small");
  for (int iter = 0; iter < 200; ++iter) {
    WireError error;
    error.message = RandomReason(rng);
    auto error2 = WireError::Deserialize(error.Serialize());
    ASSERT_TRUE(error2.has_value());
    EXPECT_EQ(error2->message, error.message);

    WireSetup setup = RandomSetup(rng);
    Bytes encoded = setup.Serialize();
    auto setup2 = WireSetup::Deserialize(encoded);
    ASSERT_TRUE(setup2.has_value());
    EXPECT_EQ(*setup2, setup);
    EXPECT_EQ(setup2->Serialize(), encoded);
    EXPECT_EQ(setup2->Digest(), setup.Digest());
  }
}

TEST(WireRoundTrip, ShardTaskBitIdentical) {
  SecureRng rng("wire-roundtrip-task");
  for (int iter = 0; iter < 300; ++iter) {
    WireShardTask task = RandomTask(rng);
    Bytes encoded = task.Serialize();
    auto decoded = WireShardTask::Deserialize(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, task);
    EXPECT_EQ(decoded->Serialize(), encoded);
  }
}

TEST(WireRoundTrip, ShardResultBitIdentical) {
  SecureRng rng("wire-roundtrip-result");
  for (int iter = 0; iter < 300; ++iter) {
    WireShardResult result = RandomResult(rng);
    Bytes encoded = result.Serialize();
    auto decoded = WireShardResult::Deserialize(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, result);
    EXPECT_EQ(decoded->Serialize(), encoded);
  }
}

TEST(WireRoundTrip, FrameBitIdentical) {
  SecureRng rng("wire-roundtrip-frame");
  for (int iter = 0; iter < 200; ++iter) {
    // Every valid type: 2 (kSetup) through 12 (kStatsReply); 1 is reserved.
    FrameType type = static_cast<FrameType>(rng.UniformBelow(11) + 2);
    Bytes payload = rng.RandomBytes(rng.UniformBelow(256));
    Bytes encoded = EncodeFrame(type, payload);
    auto frame = DecodeFrame(encoded);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(EncodeFrame(frame->type, frame->payload), encoded);
  }
}

// Admin-plane payloads (health probe/reply, stats request/reply) round-trip
// bit-identically and reject out-of-spec encodings, like every other wire
// struct: one valid encoding per payload.
TEST(WireRoundTrip, AdminPlaneBitIdentical) {
  SecureRng rng("wire-roundtrip-admin");
  for (int iter = 0; iter < 100; ++iter) {
    WireHealthProbe probe;
    probe.nonce = rng.UniformBelow(UINT64_MAX - 1) + 1;  // nonzero
    Bytes encoded = probe.Serialize();
    auto decoded = WireHealthProbe::Deserialize(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, probe);
    EXPECT_EQ(decoded->Serialize(), encoded);

    WireHealthReply reply;
    reply.nonce = probe.nonce;
    reply.server_id = rng.UniformBelow(16);
    reply.uptime_ms = rng.UniformBelow(1u << 30);
    for (auto& b : reply.params_digest) {
      b = static_cast<uint8_t>(rng.UniformBelow(256));
    }
    reply.inflight_shards = rng.UniformBelow(64);
    reply.queue_depth = rng.UniformBelow(64);
    encoded = reply.Serialize();
    auto reply2 = WireHealthReply::Deserialize(encoded);
    ASSERT_TRUE(reply2.has_value());
    EXPECT_EQ(*reply2, reply);
    EXPECT_EQ(reply2->Serialize(), encoded);

    WireStatsRequest request;
    request.include_spans = static_cast<uint8_t>(rng.UniformBelow(2));
    encoded = request.Serialize();
    auto request2 = WireStatsRequest::Deserialize(encoded);
    ASSERT_TRUE(request2.has_value());
    EXPECT_EQ(*request2, request);
    EXPECT_EQ(request2->Serialize(), encoded);

    WireStatsReply stats;
    stats.server_id = rng.UniformBelow(16);
    stats.stats_json = "{\"schema\":\"vdp.stats/v1\",\"n\":" +
                       std::to_string(rng.UniformBelow(1000)) + "}";
    encoded = stats.Serialize();
    auto stats2 = WireStatsReply::Deserialize(encoded);
    ASSERT_TRUE(stats2.has_value());
    EXPECT_EQ(*stats2, stats);
    EXPECT_EQ(stats2->Serialize(), encoded);
  }
}

TEST(WireInvariants, AdminPlaneRejectsOutOfSpecPayloads) {
  // Zero probe nonce must be rejected ("no nonce" cannot masquerade).
  WireHealthProbe probe;
  probe.nonce = 7;
  Bytes encoded = probe.Serialize();
  Bytes zeroed(encoded.size(), 0);
  EXPECT_FALSE(WireHealthProbe::Deserialize(zeroed).has_value());
  // Trailing bytes are rejected everywhere.
  Bytes trailing = encoded;
  trailing.push_back(0x00);
  EXPECT_FALSE(WireHealthProbe::Deserialize(trailing).has_value());

  WireHealthReply reply;
  reply.nonce = 7;
  Bytes reply_bytes = reply.Serialize();
  for (size_t i = 0; i < 8; ++i) {
    reply_bytes[i] = 0;  // zero the nonce echo
  }
  EXPECT_FALSE(WireHealthReply::Deserialize(reply_bytes).has_value());
  EXPECT_FALSE(
      WireHealthReply::Deserialize(BytesView(reply_bytes.data(), reply_bytes.size() - 1))
          .has_value());

  WireStatsRequest request;
  Bytes request_bytes = request.Serialize();
  request_bytes[0] = 2;  // include_spans is a boolean
  EXPECT_FALSE(WireStatsRequest::Deserialize(request_bytes).has_value());

  // Stats JSON must be nonempty and NUL-free.
  WireStatsReply stats;
  stats.server_id = 1;
  stats.stats_json = "";
  EXPECT_FALSE(WireStatsReply::Deserialize(stats.Serialize()).has_value());
  stats.stats_json = std::string("{\"a\":1}\0x", 9);
  EXPECT_FALSE(WireStatsReply::Deserialize(stats.Serialize()).has_value());
}

// Typed shard values survive the in-memory -> wire -> in-memory conversion
// exactly (ShardResult<G> round trip through ResultToWire/ResultFromWire).
TEST(WireRoundTrip, TypedShardResultThroughConversion) {
  using G = ModP256;
  SecureRng rng("wire-roundtrip-typed");
  ProtocolConfig config;
  config.num_provers = 2;
  config.num_bins = 3;
  config.session_id = "typed-roundtrip";

  ShardResult<G> result;
  result.shard_index = 7;
  result.base = 40;
  result.count = 5;
  result.accepted = {40, 42, 43};
  result.rejections = {{41, "bin OR proof invalid"}, {44, "malformed upload shape"}};
  result.partial_products.assign(config.num_provers,
                                 std::vector<G::Element>(config.num_bins, G::Identity()));
  for (auto& row : result.partial_products) {
    for (auto& element : row) {
      element = G::ExpG(G::Scalar::Random(rng));
    }
  }
  result.fallback_used = true;

  Sha256::Digest digest = Sha256::Hash(StrView("typed-digest"));
  WireShardResult wire_result = ResultToWire<G>(digest, result);
  Bytes encoded = wire_result.Serialize();
  auto decoded_wire = WireShardResult::Deserialize(encoded);
  ASSERT_TRUE(decoded_wire.has_value());
  auto decoded = ResultFromWire<G>(config, *decoded_wire);
  ASSERT_TRUE(decoded.has_value());

  EXPECT_EQ(decoded->shard_index, result.shard_index);
  EXPECT_EQ(decoded->base, result.base);
  EXPECT_EQ(decoded->count, result.count);
  EXPECT_EQ(decoded->accepted, result.accepted);
  EXPECT_EQ(decoded->rejections, result.rejections);
  EXPECT_EQ(decoded->fallback_used, result.fallback_used);
  for (size_t k = 0; k < config.num_provers; ++k) {
    for (size_t m = 0; m < config.num_bins; ++m) {
      EXPECT_TRUE(decoded->partial_products[k][m] == result.partial_products[k][m]);
    }
  }
}

// --- adversarial totality: truncation ------------------------------------

// Any strict prefix must fail cleanly: every Deserialize demands the buffer
// end exactly at the value's last byte. The one designed exception: messages
// carrying the optional trace extension truncate back to their extensionless
// twin at exactly `allowed` bytes (v1 compatibility) -- and there the decode
// must be canonical for the truncated buffer, not the original.
template <typename T>
void ExpectAllTruncationsRejected(const T& value, size_t allowed = SIZE_MAX) {
  Bytes encoded = value.Serialize();
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto truncated = T::Deserialize(BytesView(encoded.data(), len));
    if (len == allowed) {
      ASSERT_TRUE(truncated.has_value()) << "extensionless prefix must parse";
      EXPECT_EQ(truncated->Serialize(), Bytes(encoded.begin(), encoded.begin() + len));
      continue;
    }
    EXPECT_FALSE(truncated.has_value()) << "truncation to " << len << " bytes parsed";
  }
}

TEST(WireTruncation, EveryPrefixRejected) {
  SecureRng rng("wire-truncation");
  for (int iter = 0; iter < 10; ++iter) {
    ExpectAllTruncationsRejected(RandomSetup(rng));

    WireShardTask task = RandomTask(rng);
    size_t task_allowed = SIZE_MAX;
    if (task.trace_id != 0) {
      WireShardTask untraced = task;
      untraced.trace_id = 0;
      untraced.parent_span_id = 0;
      task_allowed = untraced.Serialize().size();
    }
    ExpectAllTruncationsRejected(task, task_allowed);

    WireShardResult result = RandomResult(rng);
    size_t result_allowed = SIZE_MAX;
    if (!result.spans.empty()) {
      WireShardResult spanless = result;
      spanless.spans.clear();
      result_allowed = spanless.Serialize().size();
    }
    ExpectAllTruncationsRejected(result, result_allowed);
  }
  WireError error;
  error.message = "diagnostic";
  ExpectAllTruncationsRejected(error);
  for (int iter = 0; iter < 10; ++iter) {
    ForEachHandshakeAndAdminValue(rng,
                                  [](const auto& value) { ExpectAllTruncationsRejected(value); });
  }
}

TEST(WireTruncation, FramePrefixesRejected) {
  SecureRng rng("wire-frame-truncation");
  Bytes encoded = EncodeFrame(FrameType::kTask, rng.RandomBytes(64));
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeFrame(BytesView(encoded.data(), len)).has_value());
  }
}

// --- adversarial totality: bit flips -------------------------------------

// Flipping any single bit must either fail cleanly or produce a value that
// re-serializes to exactly the corrupted buffer (canonical encoding). Both
// outcomes are sound; crashing or misparsing is not.
template <typename T>
void ExpectBitFlipsSound(const T& value, size_t* parsed_ok, size_t* rejected) {
  Bytes encoded = value.Serialize();
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupted = encoded;
      corrupted[byte] = static_cast<uint8_t>(corrupted[byte] ^ (1u << bit));
      auto decoded = T::Deserialize(corrupted);
      if (decoded.has_value()) {
        ++*parsed_ok;
        EXPECT_EQ(decoded->Serialize(), corrupted)
            << "non-canonical parse after flipping bit " << bit << " of byte " << byte;
      } else {
        ++*rejected;
      }
    }
  }
}

TEST(WireBitFlips, EverySingleBitFlipIsSound) {
  SecureRng rng("wire-bitflips");
  size_t parsed_ok = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 3; ++iter) {
    ExpectBitFlipsSound(RandomSetup(rng), &parsed_ok, &rejected);
    ExpectBitFlipsSound(RandomTask(rng), &parsed_ok, &rejected);
    ExpectBitFlipsSound(RandomResult(rng), &parsed_ok, &rejected);
    ForEachHandshakeAndAdminValue(rng, [&](const auto& value) {
      ExpectBitFlipsSound(value, &parsed_ok, &rejected);
    });
  }
  // Sanity: the corpus exercised both outcomes.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

template <typename T>
void ExpectCanonicalIfDecodes(const Bytes& soup) {
  auto decoded = T::Deserialize(soup);
  if (decoded.has_value()) {
    EXPECT_EQ(decoded->Serialize(), soup);
  }
}

// Random byte soup thrown at every decoder: nothing may crash, and headers
// that happen to decode must re-encode canonically.
TEST(WireBitFlips, RandomBufferSoupIsSound) {
  SecureRng rng("wire-soup");
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes soup = rng.RandomBytes(rng.UniformBelow(160));
    BytesView view(soup);
    (void)WireError::Deserialize(view);
    (void)WireSetup::Deserialize(view);
    (void)WireShardTask::Deserialize(view);
    ExpectCanonicalIfDecodes<WireShardResult>(soup);
    ExpectCanonicalIfDecodes<WireServerHello>(soup);
    ExpectCanonicalIfDecodes<WireClientHello>(soup);
    ExpectCanonicalIfDecodes<WireSetupAck>(soup);
    ExpectCanonicalIfDecodes<WireHealthProbe>(soup);
    ExpectCanonicalIfDecodes<WireHealthReply>(soup);
    ExpectCanonicalIfDecodes<WireStatsRequest>(soup);
    ExpectCanonicalIfDecodes<WireStatsReply>(soup);
    // The stats JSON a reply carries goes through the total parser and the
    // snapshot decoder on the client.
    auto json = obs::ParseJson(std::string_view(reinterpret_cast<const char*>(soup.data()),
                                                soup.size()));
    if (json.has_value()) {
      (void)net::SnapshotFromJson(*json);
    }
    (void)DecodeFrame(view);
    if (soup.size() >= kFrameHeaderSize) {
      (void)DecodeFrameHeader(view.subspan(0, kFrameHeaderSize));
    }
  }
}

// --- structural invariants enforced at decode ---------------------------

TEST(WireInvariants, ResultMustPartitionItsRange) {
  SecureRng rng("wire-invariants");
  WireShardResult base = RandomResult(rng);
  while (base.count < 3) {
    base = RandomResult(rng);
  }

  // An index outside [base, base + count) must not decode.
  WireShardResult bad = base;
  if (!bad.accepted.empty()) {
    bad.accepted.back() = bad.base + bad.count + 5;
    EXPECT_FALSE(WireShardResult::Deserialize(bad.Serialize()).has_value());
  }

  // A duplicated index (accepted and rejected) must not decode.
  bad = base;
  if (!bad.accepted.empty() && !bad.rejections.empty()) {
    bad.rejections[0].first = bad.accepted[0];
    EXPECT_FALSE(WireShardResult::Deserialize(bad.Serialize()).has_value());
  }

  // Dropping an index (hole in the partition) must not decode.
  bad = base;
  if (!bad.accepted.empty()) {
    bad.accepted.pop_back();
    EXPECT_FALSE(WireShardResult::Deserialize(bad.Serialize()).has_value());
  }

  // A descending accepted list must not decode.
  bad = base;
  if (bad.accepted.size() >= 2) {
    std::swap(bad.accepted.front(), bad.accepted.back());
    EXPECT_FALSE(WireShardResult::Deserialize(bad.Serialize()).has_value());
  }
}

// --- trace extension (still wire v1) ------------------------------------

// Untraced values serialize byte-identically to the pre-extension format:
// the extension may only appear as trailing fields, and only when active.
TEST(WireTraceExtension, UntracedEncodingIsPreExtension) {
  SecureRng rng("wire-trace-absent");
  WireShardTask task = RandomTask(rng);
  task.trace_id = 0;
  task.parent_span_id = 0;
  WireShardTask traced = task;
  traced.trace_id = 7;
  traced.parent_span_id = 9;
  // The traced form is a strict extension of the untraced bytes.
  Bytes plain = task.Serialize();
  Bytes extended = traced.Serialize();
  ASSERT_EQ(extended.size(), plain.size() + 16);
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), extended.begin()));

  WireShardResult result = RandomResult(rng);
  result.spans.clear();
  WireShardResult with_spans = result;
  with_spans.spans.push_back(WireSpan{"shard", 3, 0, 10, 20});
  Bytes plain_result = result.Serialize();
  Bytes extended_result = with_spans.Serialize();
  EXPECT_GT(extended_result.size(), plain_result.size());
  EXPECT_TRUE(
      std::equal(plain_result.begin(), plain_result.end(), extended_result.begin()));
}

// Canonicality: the absent forms must stay absent. An explicitly-encoded
// zero trace_id, an explicitly-encoded empty span list, an empty span name,
// or a zero span id all reject at decode.
TEST(WireTraceExtension, RejectsNonCanonicalTraceEncodings) {
  SecureRng rng("wire-trace-reject");
  WireShardTask task = RandomTask(rng);
  task.trace_id = 0;

  // Append an explicit zero trace_id (+ any parent): must not decode.
  Bytes bytes = task.Serialize();
  Writer w;
  w.U64(0);
  w.U64(42);
  Bytes zero_trace = bytes;
  Bytes tail = w.Take();
  zero_trace.insert(zero_trace.end(), tail.begin(), tail.end());
  EXPECT_FALSE(WireShardTask::Deserialize(zero_trace).has_value());

  // Half the extension (trace_id without parent) must not decode.
  Writer half;
  half.U64(7);
  Bytes half_trace = bytes;
  Bytes half_tail = half.Take();
  half_trace.insert(half_trace.end(), half_tail.begin(), half_tail.end());
  EXPECT_FALSE(WireShardTask::Deserialize(half_trace).has_value());

  WireShardResult result = RandomResult(rng);
  result.spans.clear();
  Bytes result_bytes = result.Serialize();

  // Explicitly-encoded empty span list: must not decode.
  Writer empty_list;
  empty_list.U32(0);
  Bytes with_empty = result_bytes;
  Bytes empty_tail = empty_list.Take();
  with_empty.insert(with_empty.end(), empty_tail.begin(), empty_tail.end());
  EXPECT_FALSE(WireShardResult::Deserialize(with_empty).has_value());

  // A span with an empty name must not decode.
  WireShardResult bad_name = result;
  bad_name.spans.push_back(WireSpan{"", 3, 0, 1, 1});
  EXPECT_FALSE(WireShardResult::Deserialize(bad_name.Serialize()).has_value());

  // A span with span_id == 0 (reserved for "no span") must not decode.
  WireShardResult bad_id = result;
  bad_id.spans.push_back(WireSpan{"shard", 0, 0, 1, 1});
  EXPECT_FALSE(WireShardResult::Deserialize(bad_id.Serialize()).has_value());
}

// ReadFrame must classify what went wrong on the stream -- the process
// pool's blame reports are only as good as this classification.
TEST(WireInvariants, ReadFrameClassifiesOkVersionSkewMalformedEofAndTimeout) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  // A valid frame reads back intact.
  Bytes good = EncodeFrame(FrameType::kResult, Bytes{0xAA, 0xBB});
  ASSERT_EQ(write(fds[1], good.data(), good.size()), static_cast<ssize_t>(good.size()));
  Frame frame;
  EXPECT_EQ(ReadFrame(fds[0], &frame, 1000), ReadStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, (Bytes{0xAA, 0xBB}));

  // Valid magic + future version: version skew, not generic garbage, so a
  // mixed-version fleet is diagnosed as such in the blame report.
  Bytes skewed = good;
  skewed[4] = kWireVersion + 1;
  ASSERT_EQ(write(fds[1], skewed.data(), skewed.size()),
            static_cast<ssize_t>(skewed.size()));
  EXPECT_EQ(ReadFrame(fds[0], &frame, 1000), ReadStatus::kVersionSkew);
  // Drain the stale payload the skewed header promised but we never read.
  Bytes drain(skewed.size() - kFrameHeaderSize, 0);
  ASSERT_EQ(read(fds[0], drain.data(), drain.size()), static_cast<ssize_t>(drain.size()));

  // Bad magic: malformed.
  Bytes junk(kFrameHeaderSize, 0xAB);
  ASSERT_EQ(write(fds[1], junk.data(), junk.size()), static_cast<ssize_t>(junk.size()));
  EXPECT_EQ(ReadFrame(fds[0], &frame, 1000), ReadStatus::kMalformed);

  // Nothing on the stream: timeout fires.
  EXPECT_EQ(ReadFrame(fds[0], &frame, 50), ReadStatus::kTimeout);

  // Peer closes between frames: clean EOF. Mid-frame close: malformed.
  ASSERT_EQ(write(fds[1], good.data(), 3), 3);  // partial header, then hang up
  close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0], &frame, 1000), ReadStatus::kMalformed);
  EXPECT_EQ(ReadFrame(fds[0], &frame, 1000), ReadStatus::kEof);
  close(fds[0]);
}

TEST(WireInvariants, FrameHeaderRejectsWrongMagicVersionTypeAndHugePayload) {
  Bytes header = EncodeFrame(FrameType::kSetup, {});
  ASSERT_EQ(header.size(), kFrameHeaderSize);
  EXPECT_TRUE(DecodeFrameHeader(header).has_value());

  Bytes bad = header;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(DecodeFrameHeader(bad).has_value());

  bad = header;
  bad[4] = kWireVersion + 1;  // future version
  EXPECT_FALSE(DecodeFrameHeader(bad).has_value());

  bad = header;
  bad[5] = 0;  // frame type below range
  EXPECT_FALSE(DecodeFrameHeader(bad).has_value());
  bad[5] = 1;  // reserved: the retired pipe worker's hello
  EXPECT_FALSE(DecodeFrameHeader(bad).has_value());
  bad[5] = 13;  // frame type above range (12 = kStatsReply is the last valid)
  EXPECT_FALSE(DecodeFrameHeader(bad).has_value());

  bad = header;
  // Payload length field: all 0xFF = 4 GiB - 1 > kMaxFramePayload.
  bad[6] = bad[7] = bad[8] = bad[9] = 0xFF;
  EXPECT_FALSE(DecodeFrameHeader(bad).has_value());
}

}  // namespace
}  // namespace wire
}  // namespace vdp
