// Golden-vector pins for the multi-process wire format: the exact bytes of
// representative frames are frozen here as hex fixtures, so ANY drift in
// the encoding -- field order, widths, endianness, frame header, element
// encoding, or the setup digest -- fails this suite instead of silently
// breaking mixed-version fleets. If a change is intentional, bump
// wire::kWireVersion and regenerate the fixtures (each assertion prints the
// actual encoding on mismatch).
//
// vdp_lint's wire-golden rule enforces the pairing mechanically: any change
// set touching src/wire/wire_format.* must touch this file too, so encoding
// drift is always acknowledged next to the bytes it freezes. Zero-initialized
// decode scratch arrays changed no byte below. Retiring the pipe worker's
// hello (frame type 1, now reserved) dropped its vector and left every other
// one unchanged; the setup's eight-byte WireConfig slot that once carried a
// local fleet size is now reserved, and GoldenSetup() fills it with the
// pinned 3 directly.
#include <gtest/gtest.h>

#include "src/common/hex.h"
#include "src/net/auth.h"
#include "src/net/remote_conn.h"
#include "src/wire/wire_convert.h"
#include "src/wire/wire_format.h"

namespace vdp {
namespace wire {
namespace {

// EncodeFrame(kResult, ...) of a synthetic WireShardResult: digest 00..1f,
// shard 2 covering [10, 14), accepted {10, 12}, two canonical rejection
// reasons, a 1x2 product matrix, fallback used.
constexpr char kGoldenResultFrameHex[] =
    "564450570104a7000000000102030405060708090a0b0c0d0e0f10111213141516171819"
    "1a1b1c1d1e1f02000000000000000a0000000000000004000000000000000200000"
    "00a000000000000000c00000000000000020000000b00000000000000140000006269"
    "6e204f522070726f6f6620696e76616c69640d000000000000001600000"
    "06d616c666f726d65642075706c6f61642073686170650100000002000000030000000"
    "10203010000000401";

// EncodeFrame(kTask, ...) of a synthetic WireShardTask: digest a0..bf,
// shard 1 based at 16, compute_products on, two opaque upload blobs.
constexpr char kGoldenTaskFrameHex[] =
    "56445057010342000000a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9"
    "babbbcbdbebf0100000000000000100000000000000001020000000200000"
    "0dead03000000beef01";

// WireSetup payload for ModP256 with the default (nothing-up-my-sleeve)
// Pedersen bases and a fixed config. Pins the config layout AND the group
// name / element encoding / hash-to-group derivation of the bases.
constexpr char kGoldenSetupPayloadHex[] =
    "080000006d6f64702d323536000000000000f03f000000000000503f0200000000000000"
    "03000000000000000001040000000000000003000000000000000e000000676f6c64656e"
    "2d73657373696f6e20000000000000000000000000000000000000000000000000000000"
    "00000000000000042000000064f6261ba1ef974ff605a06cf1accb2b78944fde8a184b4d"
    "91b325aea5225600";

// SHA-256 tagged digest of the setup payload above; every task and result
// frame of that session carries these 32 bytes.
constexpr char kGoldenSetupDigestHex[] =
    "b371da10bb7b346dc547777f03a47d7962a766716d1bda4627600b62aaddeb92";

WireShardResult GoldenResult() {
  WireShardResult r;
  for (size_t i = 0; i < r.params_digest.size(); ++i) {
    r.params_digest[i] = static_cast<uint8_t>(i);
  }
  r.shard_index = 2;
  r.base = 10;
  r.count = 4;
  r.accepted = {10, 12};
  r.rejections = {{11, "bin OR proof invalid"}, {13, "malformed upload shape"}};
  r.partial_products = {{Bytes{0x01, 0x02, 0x03}, Bytes{0x04}}};
  r.fallback_used = 1;
  return r;
}

WireShardTask GoldenTask() {
  WireShardTask t;
  for (size_t i = 0; i < t.params_digest.size(); ++i) {
    t.params_digest[i] = static_cast<uint8_t>(0xA0 + i);
  }
  t.shard_index = 1;
  t.base = 16;
  t.compute_products = 1;
  t.uploads = {Bytes{0xDE, 0xAD}, Bytes{0xBE, 0xEF, 0x01}};
  return t;
}

WireSetup GoldenSetup() {
  ProtocolConfig config;
  config.epsilon = 1.0;
  config.delta = 1.0 / 1024;
  config.num_provers = 2;
  config.num_bins = 3;
  config.batch_verify = true;
  config.num_verify_shards = 4;
  config.session_id = "golden-session";
  Pedersen<ModP256> ped;
  WireSetup setup = MakeWireSetup(config, ped);
  EXPECT_EQ(setup.config.reserved, 0u);  // drivers write 0
  setup.config.reserved = 3;
  return setup;
}

TEST(WireGolden, ResultFrameBytesArePinned) {
  Bytes frame = EncodeFrame(FrameType::kResult, GoldenResult().Serialize());
  EXPECT_EQ(HexEncode(frame), kGoldenResultFrameHex);
}

TEST(WireGolden, TaskFrameBytesArePinned) {
  Bytes frame = EncodeFrame(FrameType::kTask, GoldenTask().Serialize());
  EXPECT_EQ(HexEncode(frame), kGoldenTaskFrameHex);
}

TEST(WireGolden, SetupPayloadAndDigestArePinned) {
  WireSetup setup = GoldenSetup();
  EXPECT_EQ(HexEncode(setup.Serialize()), kGoldenSetupPayloadHex);
  auto digest = setup.Digest();
  EXPECT_EQ(HexEncode(BytesView(digest.data(), digest.size())), kGoldenSetupDigestHex);
}

// Frame type 1 (the retired pipe worker's hello) is reserved: a frame that
// carries it is rejected at the header as unknown.
TEST(WireGolden, ReservedFrameTypeOneIsRejected) {
  auto frame_bytes = HexDecode(kGoldenTaskFrameHex);
  ASSERT_TRUE(frame_bytes.has_value());
  Bytes retyped = *frame_bytes;
  retyped[5] = 1;  // the type byte follows the magic and the version
  EXPECT_FALSE(DecodeFrame(retyped).has_value());
  EXPECT_FALSE(
      DecodeFrameHeader(BytesView(retyped.data(), kFrameHeaderSize)).has_value());
}

// The checked-in fixtures must decode back to the values that produced
// them (guards against fixtures rotting if Serialize and Deserialize drift
// together in a way round-trip tests cannot see).
TEST(WireGolden, FixturesDecode) {
  auto result_frame = HexDecode(kGoldenResultFrameHex);
  ASSERT_TRUE(result_frame.has_value());
  auto frame = DecodeFrame(*result_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kResult);
  auto result = WireShardResult::Deserialize(frame->payload);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, GoldenResult());

  auto task_frame = HexDecode(kGoldenTaskFrameHex);
  ASSERT_TRUE(task_frame.has_value());
  frame = DecodeFrame(*task_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kTask);
  auto task = WireShardTask::Deserialize(frame->payload);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(*task, GoldenTask());

  auto setup_payload = HexDecode(kGoldenSetupPayloadHex);
  ASSERT_TRUE(setup_payload.has_value());
  auto setup = WireSetup::Deserialize(*setup_payload);
  ASSERT_TRUE(setup.has_value());
  EXPECT_EQ(*setup, GoldenSetup());
}

// --- Socket-transport handshake/auth fixtures ---------------------------
//
// The remote-verifier bootstrap frames (PR 5): server hello, client hello,
// setup ack, the session key both sides derive, and one fully sealed
// (MAC-trailered) authenticated frame. Any drift in the handshake layout,
// the key derivation, or the MAC transform fails here before it can strand
// a mixed-version fleet mid-handshake.

// EncodeFrame(kServerHello, ...): version 1, pid 4242, server id 7,
// nonce 00..1f.
constexpr char kGoldenServerHelloFrameHex[] =
    "564450570106310000000192100000000000000700000000000000000102030405060708"
    "090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f";

// EncodeFrame(kClientHello, ...): version 1, nonce a0..bf.
constexpr char kGoldenClientHelloFrameHex[] =
    "5644505701072100000001a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8"
    "b9babbbcbdbebf";

// WireSetupAck payload: digest 40..5f, server id 7.
constexpr char kGoldenSetupAckPayloadHex[] =
    "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f07000000"
    "00000000";

// DeriveSessionKey(psk 00..0f, server nonce 00..1f, client nonce a0..bf).
constexpr char kGoldenSessionKeyHex[] =
    "17ecf98faeaaa7a2806a008f3dace158b6a910e380b741331d1a36a008d759f5";

// EncodeFrame(kSetupAck, SealPayload(session key, server->client, seq 0,
// kSetupAck, ack payload)): the ack payload followed by its 32-byte HMAC
// trailer. Pins the whole authenticated-frame transform end to end.
constexpr char kGoldenSealedAckFrameHex[] =
    "56445057010848000000404142434445464748494a4b4c4d4e4f50515253545556575859"
    "5a5b5c5d5e5f070000000000000099b135ad9fab56b93cf4f17f66e3b4ad46cca427a373"
    "5917a45a4eb3326884f9";

WireServerHello GoldenServerHello() {
  WireServerHello hello;
  hello.version = 1;
  hello.pid = 4242;
  hello.server_id = 7;
  for (size_t i = 0; i < hello.nonce.size(); ++i) {
    hello.nonce[i] = static_cast<uint8_t>(i);
  }
  return hello;
}

WireClientHello GoldenClientHello() {
  WireClientHello hello;
  hello.version = 1;
  for (size_t i = 0; i < hello.nonce.size(); ++i) {
    hello.nonce[i] = static_cast<uint8_t>(0xA0 + i);
  }
  return hello;
}

WireSetupAck GoldenSetupAck() {
  WireSetupAck ack;
  for (size_t i = 0; i < ack.params_digest.size(); ++i) {
    ack.params_digest[i] = static_cast<uint8_t>(0x40 + i);
  }
  ack.server_id = 7;
  return ack;
}

net::SessionKey GoldenSessionKey() {
  auto psk = HexDecode("000102030405060708090a0b0c0d0e0f");
  WireServerHello sh = GoldenServerHello();
  WireClientHello ch = GoldenClientHello();
  return net::DeriveSessionKey(*psk, BytesView(sh.nonce.data(), sh.nonce.size()),
                               BytesView(ch.nonce.data(), ch.nonce.size()));
}

TEST(WireGolden, HandshakeFrameBytesArePinned) {
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kServerHello, GoldenServerHello().Serialize())),
            kGoldenServerHelloFrameHex);
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kClientHello, GoldenClientHello().Serialize())),
            kGoldenClientHelloFrameHex);
  EXPECT_EQ(HexEncode(GoldenSetupAck().Serialize()), kGoldenSetupAckPayloadHex);
}

TEST(WireGolden, SessionKeyDerivationIsPinned) {
  net::SessionKey key = GoldenSessionKey();
  EXPECT_EQ(HexEncode(BytesView(key.data(), key.size())), kGoldenSessionKeyHex);
}

TEST(WireGolden, SealedAuthFrameBytesArePinned) {
  Bytes sealed = net::SealPayload(GoldenSessionKey(), net::kServerToClient, 0,
                                  FrameType::kSetupAck, GoldenSetupAck().Serialize());
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kSetupAck, sealed)), kGoldenSealedAckFrameHex);
}

TEST(WireGolden, HandshakeFixturesDecode) {
  auto server_frame = HexDecode(kGoldenServerHelloFrameHex);
  ASSERT_TRUE(server_frame.has_value());
  auto frame = DecodeFrame(*server_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kServerHello);
  auto server_hello = WireServerHello::Deserialize(frame->payload);
  ASSERT_TRUE(server_hello.has_value());
  EXPECT_EQ(*server_hello, GoldenServerHello());

  auto client_frame = HexDecode(kGoldenClientHelloFrameHex);
  ASSERT_TRUE(client_frame.has_value());
  frame = DecodeFrame(*client_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kClientHello);
  auto client_hello = WireClientHello::Deserialize(frame->payload);
  ASSERT_TRUE(client_hello.has_value());
  EXPECT_EQ(*client_hello, GoldenClientHello());

  // The sealed ack fixture opens under the pinned session key and decodes
  // back to the golden ack.
  auto sealed_frame = HexDecode(kGoldenSealedAckFrameHex);
  ASSERT_TRUE(sealed_frame.has_value());
  frame = DecodeFrame(*sealed_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kSetupAck);
  auto opened = net::OpenPayload(GoldenSessionKey(), net::kServerToClient, 0,
                                 FrameType::kSetupAck, frame->payload);
  ASSERT_TRUE(opened.has_value());
  auto ack = WireSetupAck::Deserialize(*opened);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, GoldenSetupAck());
}

// A bad MAC must be rejected: any flipped bit in the sealed frame --
// payload or trailer -- fails OpenPayload, as does the right frame at the
// wrong sequence number (a replay).
TEST(WireGolden, SealedFrameWithBadMacIsRejected) {
  auto sealed_frame = HexDecode(kGoldenSealedAckFrameHex);
  ASSERT_TRUE(sealed_frame.has_value());
  auto frame = DecodeFrame(*sealed_frame);
  ASSERT_TRUE(frame.has_value());

  for (size_t i : {size_t{0}, frame->payload.size() / 2, frame->payload.size() - 1}) {
    Bytes tampered = frame->payload;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(net::OpenPayload(GoldenSessionKey(), net::kServerToClient, 0,
                                  FrameType::kSetupAck, tampered)
                     .has_value())
        << "flipped sealed byte " << i;
  }
  // Replay: authentic bytes at the wrong sequence number.
  EXPECT_FALSE(net::OpenPayload(GoldenSessionKey(), net::kServerToClient, 1,
                                FrameType::kSetupAck, frame->payload)
                   .has_value());
}

// A stale setup digest must be rejected: the ack's digest is checked
// byte-for-byte against the driver's own setup digest.
TEST(WireGolden, StaleSetupDigestIsRejected) {
  WireSetupAck ack = GoldenSetupAck();
  Sha256::Digest current = ack.params_digest;
  EXPECT_TRUE(net::AckMatchesSetup(ack, current));

  Sha256::Digest stale = current;
  stale[0] ^= 0x01;  // the digest of some other session's parameters
  EXPECT_FALSE(net::AckMatchesSetup(ack, stale));

  WireSetupAck stale_ack = ack;
  stale_ack.params_digest[31] ^= 0x80;
  EXPECT_FALSE(net::AckMatchesSetup(stale_ack, current));
}

// --- Introspection-plane fixtures (PR 10) -------------------------------
//
// The health/stats admin frames and one fully sealed admin-plane frame.
// The sealed fixture pins the admin direction byte (data direction + 2) in
// the MAC transform: a v1 peer that sealed kHealthProbe on the data plane
// would produce different bytes and fail to authenticate.

// EncodeFrame(kHealthProbe, ...): nonce 0x1122334455667788.
constexpr char kGoldenHealthProbeFrameHex[] =
    "564450570109080000008877665544332211";

// EncodeFrame(kHealthReply, ...): nonce echoed, server id 7, uptime
// 123456 ms, digest 60..7f, 2 inflight shards, queue depth 1.
constexpr char kGoldenHealthReplyFrameHex[] =
    "56445057010a480000008877665544332211070000000000000040e2010000000000"
    "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"
    "02000000000000000100000000000000";

// EncodeFrame(kStatsRequest, ...): include_spans on.
constexpr char kGoldenStatsRequestFrameHex[] = "56445057010b0100000001";

// EncodeFrame(kStatsReply, ...): server id 7, minimal schema-stamped JSON.
constexpr char kGoldenStatsReplyFrameHex[] =
    "56445057010c250000000700000000000000190000007b22736368656d61223a2276"
    "64702e73746174732f7631227d";

// EncodeFrame(kHealthProbe, SealPayload(session key, client->server ADMIN
// direction, seq 0, kHealthProbe, probe payload)): the probe payload plus
// its 32-byte HMAC trailer under the pinned session key.
constexpr char kGoldenSealedAdminProbeFrameHex[] =
    "564450570109280000008877665544332211d9f9621111c28c40d4ace33cfe636c85"
    "847203b3eaa6a47f9672db59a221d72c";

WireHealthProbe GoldenHealthProbe() {
  WireHealthProbe probe;
  probe.nonce = 0x1122334455667788ULL;
  return probe;
}

WireHealthReply GoldenHealthReply() {
  WireHealthReply reply;
  reply.nonce = 0x1122334455667788ULL;
  reply.server_id = 7;
  reply.uptime_ms = 123456;
  for (size_t i = 0; i < reply.params_digest.size(); ++i) {
    reply.params_digest[i] = static_cast<uint8_t>(0x60 + i);
  }
  reply.inflight_shards = 2;
  reply.queue_depth = 1;
  return reply;
}

WireStatsReply GoldenStatsReply() {
  WireStatsReply reply;
  reply.server_id = 7;
  reply.stats_json = R"({"schema":"vdp.stats/v1"})";
  return reply;
}

TEST(WireGolden, IntrospectionFrameBytesArePinned) {
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kHealthProbe,
                                  GoldenHealthProbe().Serialize())),
            kGoldenHealthProbeFrameHex);
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kHealthReply,
                                  GoldenHealthReply().Serialize())),
            kGoldenHealthReplyFrameHex);
  WireStatsRequest request;
  request.include_spans = 1;
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kStatsRequest, request.Serialize())),
            kGoldenStatsRequestFrameHex);
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kStatsReply,
                                  GoldenStatsReply().Serialize())),
            kGoldenStatsReplyFrameHex);
}

TEST(WireGolden, SealedAdminProbeFrameBytesArePinned) {
  Bytes sealed =
      net::SealPayload(GoldenSessionKey(), net::kClientToServerAdmin, 0,
                       FrameType::kHealthProbe, GoldenHealthProbe().Serialize());
  EXPECT_EQ(HexEncode(EncodeFrame(FrameType::kHealthProbe, sealed)),
            kGoldenSealedAdminProbeFrameHex);
  // The same bytes sealed on the DATA plane must differ: the direction byte
  // is inside the MAC, so the planes can never be spliced into each other.
  Bytes data_plane =
      net::SealPayload(GoldenSessionKey(), net::kClientToServer, 0,
                       FrameType::kHealthProbe, GoldenHealthProbe().Serialize());
  EXPECT_NE(HexEncode(EncodeFrame(FrameType::kHealthProbe, data_plane)),
            kGoldenSealedAdminProbeFrameHex);
}

TEST(WireGolden, IntrospectionFixturesDecode) {
  auto probe_frame = HexDecode(kGoldenHealthProbeFrameHex);
  ASSERT_TRUE(probe_frame.has_value());
  auto frame = DecodeFrame(*probe_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHealthProbe);
  auto probe = WireHealthProbe::Deserialize(frame->payload);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(*probe, GoldenHealthProbe());

  auto reply_frame = HexDecode(kGoldenHealthReplyFrameHex);
  ASSERT_TRUE(reply_frame.has_value());
  frame = DecodeFrame(*reply_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHealthReply);
  auto reply = WireHealthReply::Deserialize(frame->payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, GoldenHealthReply());

  auto stats_frame = HexDecode(kGoldenStatsReplyFrameHex);
  ASSERT_TRUE(stats_frame.has_value());
  frame = DecodeFrame(*stats_frame);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kStatsReply);
  auto stats = WireStatsReply::Deserialize(frame->payload);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(*stats, GoldenStatsReply());

  // The sealed admin fixture opens ONLY with the admin direction; the data
  // direction at the same sequence number is rejected.
  auto sealed_frame = HexDecode(kGoldenSealedAdminProbeFrameHex);
  ASSERT_TRUE(sealed_frame.has_value());
  frame = DecodeFrame(*sealed_frame);
  ASSERT_TRUE(frame.has_value());
  auto opened = net::OpenPayload(GoldenSessionKey(), net::kClientToServerAdmin, 0,
                                 FrameType::kHealthProbe, frame->payload);
  ASSERT_TRUE(opened.has_value());
  auto sealed_probe = WireHealthProbe::Deserialize(*opened);
  ASSERT_TRUE(sealed_probe.has_value());
  EXPECT_EQ(*sealed_probe, GoldenHealthProbe());
  EXPECT_FALSE(net::OpenPayload(GoldenSessionKey(), net::kClientToServer, 0,
                                FrameType::kHealthProbe, frame->payload)
                   .has_value());
}

// An unknown (future) wire version must be rejected at the frame header,
// before any payload is interpreted -- a version bump can never be
// misparsed as the current format.
TEST(WireGolden, FutureVersionIsRejectedCleanly) {
  auto frame_bytes = HexDecode(kGoldenResultFrameHex);
  ASSERT_TRUE(frame_bytes.has_value());
  ASSERT_TRUE(DecodeFrame(*frame_bytes).has_value());

  Bytes bumped = *frame_bytes;
  bumped[4] = kWireVersion + 1;  // the version byte follows the 4-byte magic
  EXPECT_FALSE(DecodeFrame(bumped).has_value());
  EXPECT_FALSE(
      DecodeFrameHeader(BytesView(bumped.data(), kFrameHeaderSize)).has_value());

  bumped[4] = 0;  // ancient/zero version: equally rejected
  EXPECT_FALSE(DecodeFrame(bumped).has_value());
}

}  // namespace
}  // namespace wire
}  // namespace vdp
