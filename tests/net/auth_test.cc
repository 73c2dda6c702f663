// The transport authenticator: session-key derivation, frame seal/open, and
// the AuthChannel over a real socketpair -- including every rejection the
// fleet driver's blame machinery depends on (tampered payload, tampered
// tag, wrong key, replay, reorder, reflection, truncation).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/net/auth.h"

namespace vdp {
namespace net {
namespace {

TEST(SessionKeyTest, DeterministicAndNonceSeparated) {
  Bytes secret(32, 0x11);
  Bytes sn(32, 0xA0);
  Bytes cn(32, 0xB0);
  SessionKey k1 = DeriveSessionKey(secret, sn, cn);
  SessionKey k2 = DeriveSessionKey(secret, sn, cn);
  EXPECT_EQ(k1, k2);

  // Any change to secret or either nonce yields a different key.
  Bytes other_secret(32, 0x12);
  EXPECT_NE(k1, DeriveSessionKey(other_secret, sn, cn));
  Bytes other_sn(32, 0xA1);
  EXPECT_NE(k1, DeriveSessionKey(secret, other_sn, cn));
  Bytes other_cn(32, 0xB1);
  EXPECT_NE(k1, DeriveSessionKey(secret, sn, other_cn));
  // Swapping the nonce roles changes the key too.
  EXPECT_NE(k1, DeriveSessionKey(secret, cn, sn));
}

TEST(SealOpenTest, RoundTrips) {
  SessionKey key = DeriveSessionKey(Bytes(16, 0x01), Bytes(32, 0x02), Bytes(32, 0x03));
  Bytes payload = {1, 2, 3, 4, 5};
  Bytes sealed = SealPayload(key, kClientToServer, 7, wire::FrameType::kTask, payload);
  EXPECT_EQ(sealed.size(), payload.size() + kMacTagSize);
  auto opened = OpenPayload(key, kClientToServer, 7, wire::FrameType::kTask, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

TEST(SealOpenTest, RejectsEveryMismatch) {
  SessionKey key = DeriveSessionKey(Bytes(16, 0x01), Bytes(32, 0x02), Bytes(32, 0x03));
  Bytes payload = {1, 2, 3, 4, 5};
  Bytes sealed = SealPayload(key, kClientToServer, 7, wire::FrameType::kTask, payload);

  // Tampered payload byte.
  Bytes tampered = sealed;
  tampered[0] ^= 0x01;
  EXPECT_FALSE(
      OpenPayload(key, kClientToServer, 7, wire::FrameType::kTask, tampered).has_value());
  // Tampered tag byte.
  tampered = sealed;
  tampered[sealed.size() - 1] ^= 0x01;
  EXPECT_FALSE(
      OpenPayload(key, kClientToServer, 7, wire::FrameType::kTask, tampered).has_value());
  // Wrong sequence number (replay / reorder).
  EXPECT_FALSE(
      OpenPayload(key, kClientToServer, 8, wire::FrameType::kTask, sealed).has_value());
  // Wrong direction (reflection).
  EXPECT_FALSE(
      OpenPayload(key, kServerToClient, 7, wire::FrameType::kTask, sealed).has_value());
  // Wrong frame type (type confusion).
  EXPECT_FALSE(
      OpenPayload(key, kClientToServer, 7, wire::FrameType::kResult, sealed).has_value());
  // Wrong key.
  SessionKey other = DeriveSessionKey(Bytes(16, 0x09), Bytes(32, 0x02), Bytes(32, 0x03));
  EXPECT_FALSE(
      OpenPayload(other, kClientToServer, 7, wire::FrameType::kTask, sealed).has_value());
  // Too short for a tag at all.
  EXPECT_FALSE(OpenPayload(key, kClientToServer, 7, wire::FrameType::kTask,
                           BytesView(sealed.data(), kMacTagSize - 1))
                   .has_value());
}

TEST(SealOpenTest, EmptyPayloadSealsToJustTheTag) {
  SessionKey key = DeriveSessionKey(Bytes(16, 0x01), Bytes(32, 0x02), Bytes(32, 0x03));
  Bytes sealed = SealPayload(key, kServerToClient, 0, wire::FrameType::kSetupAck, {});
  EXPECT_EQ(sealed.size(), kMacTagSize);
  auto opened = OpenPayload(key, kServerToClient, 0, wire::FrameType::kSetupAck, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// LoadAuthKey reads $VDP_REMOTE_AUTH_KEY, which the test environment may
// set for a spawned fleet; each case restores it.
class LoadAuthKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* env = std::getenv("VDP_REMOTE_AUTH_KEY")) {
      saved_env_ = env;
    }
    unsetenv("VDP_REMOTE_AUTH_KEY");
    path_ = ::testing::TempDir() + "auth_key_" + std::to_string(getpid()) + ".hex";
  }

  void TearDown() override {
    std::remove(path_.c_str());
    if (saved_env_.has_value()) {
      setenv("VDP_REMOTE_AUTH_KEY", saved_env_->c_str(), 1);
    } else {
      unsetenv("VDP_REMOTE_AUTH_KEY");
    }
  }

  void WriteKeyFile(const std::string& contents) {
    FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(contents.c_str(), f);
    std::fclose(f);
  }

  std::string path_;
  std::optional<std::string> saved_env_;
};

TEST_F(LoadAuthKeyTest, KeyFileWhitespaceIsIgnored) {
  WriteKeyFile("  0011223344556677\n\t8899aabb ccddeeff\r\n\n");
  auto key = LoadAuthKey(path_);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, (Bytes{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa,
                         0xbb, 0xcc, 0xdd, 0xee, 0xff}));
}

TEST_F(LoadAuthKeyTest, FallsBackToTheEnvironmentWithoutAFile) {
  EXPECT_FALSE(LoadAuthKey("").has_value());  // neither source set
  setenv("VDP_REMOTE_AUTH_KEY", "0102030405060708090a0b0c0d0e0f10", 1);
  auto key = LoadAuthKey("");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->size(), kMinAuthKeyBytes);
  EXPECT_EQ((*key)[0], 0x01);
  EXPECT_EQ((*key)[15], 0x10);

  // A named file wins over the environment, even when it cannot be read.
  WriteKeyFile(std::string(2 * kMinAuthKeyBytes, 'f'));
  EXPECT_EQ(*LoadAuthKey(path_), Bytes(kMinAuthKeyBytes, 0xff));
  EXPECT_FALSE(LoadAuthKey(path_ + ".missing").has_value());
}

TEST_F(LoadAuthKeyTest, ShortOrMalformedKeyRejected) {
  WriteKeyFile(std::string(2 * kMinAuthKeyBytes - 2, 'a'));  // 15 bytes
  EXPECT_FALSE(LoadAuthKey(path_).has_value());
  WriteKeyFile(std::string(2 * kMinAuthKeyBytes - 1, 'a'));  // odd digit count
  EXPECT_FALSE(LoadAuthKey(path_).has_value());
  WriteKeyFile(std::string(2 * kMinAuthKeyBytes - 1, 'a') + "g");  // not hex
  EXPECT_FALSE(LoadAuthKey(path_).has_value());
  setenv("VDP_REMOTE_AUTH_KEY", "00112233", 1);
  EXPECT_FALSE(LoadAuthKey("").has_value());
}

class AuthChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd_ = fds[0];
    server_fd_ = fds[1];
    key_ = DeriveSessionKey(Bytes(32, 0x44), Bytes(32, 0x55), Bytes(32, 0x66));
    client_ = AuthChannel(client_fd_, key_, /*is_client=*/true);
    server_ = AuthChannel(server_fd_, key_, /*is_client=*/false);
  }

  void TearDown() override {
    close(client_fd_);
    close(server_fd_);
  }

  int client_fd_ = -1;
  int server_fd_ = -1;
  SessionKey key_;
  AuthChannel client_;
  AuthChannel server_;
};

TEST_F(AuthChannelTest, BidirectionalRoundTrip) {
  Bytes task = {0xDE, 0xAD};
  ASSERT_EQ(client_.Write(wire::FrameType::kTask, task), wire::WriteStatus::kOk);
  wire::Frame frame;
  ASSERT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kTask);
  EXPECT_EQ(frame.payload, task);

  Bytes result = {0xBE, 0xEF, 0x01};
  ASSERT_EQ(server_.Write(wire::FrameType::kResult, result), wire::WriteStatus::kOk);
  ASSERT_EQ(client_.Read(&frame, 1000), wire::ReadStatus::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kResult);
  EXPECT_EQ(frame.payload, result);

  EXPECT_EQ(client_.frames_sent(), 1u);
  EXPECT_EQ(client_.frames_received(), 1u);
}

TEST_F(AuthChannelTest, SequenceNumbersAdvancePerFrame) {
  for (int i = 0; i < 5; ++i) {
    Bytes payload = {static_cast<uint8_t>(i)};
    ASSERT_EQ(client_.Write(wire::FrameType::kTask, payload), wire::WriteStatus::kOk);
  }
  wire::Frame frame;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk) << "frame " << i;
    EXPECT_EQ(frame.payload[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(server_.frames_received(), 5u);
}

TEST_F(AuthChannelTest, TamperedFrameFailsAuthentication) {
  // Seal a frame by hand, flip one payload byte on the wire, and deliver.
  Bytes payload = {1, 2, 3};
  Bytes sealed = SealPayload(key_, kClientToServer, 0, wire::FrameType::kTask, payload);
  sealed[1] ^= 0x80;
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kTask, sealed),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
}

TEST_F(AuthChannelTest, ReplayedFrameFailsAuthentication) {
  // The same authentic bytes delivered twice: the second copy arrives at
  // receive sequence 1 and must fail.
  Bytes payload = {1, 2, 3};
  Bytes sealed = SealPayload(key_, kClientToServer, 0, wire::FrameType::kTask, payload);
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kTask, sealed),
            wire::WriteStatus::kOk);
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kTask, sealed),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk);
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
}

TEST_F(AuthChannelTest, WrongKeyFailsAuthentication) {
  SessionKey wrong = DeriveSessionKey(Bytes(32, 0x45), Bytes(32, 0x55), Bytes(32, 0x66));
  AuthChannel impostor(client_fd_, wrong, /*is_client=*/true);
  Bytes payload = {9, 9};
  ASSERT_EQ(impostor.Write(wire::FrameType::kTask, payload), wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
}

TEST_F(AuthChannelTest, ServerFrameCannotBeReflectedToServer) {
  // A frame the server authentically sent, bounced back at it, must not
  // verify (directions are MAC-bound).
  Bytes payload = {7};
  Bytes sealed = SealPayload(key_, kServerToClient, 0, wire::FrameType::kResult, payload);
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kResult, sealed),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
}

TEST_F(AuthChannelTest, BareUnauthenticatedFrameFailsAuthentication) {
  // A peer speaking the plain pipe protocol (no MAC trailer) on an
  // authenticated connection is rejected, not misread.
  Bytes payload = {1, 2, 3};
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kTask, payload),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
}

TEST_F(AuthChannelTest, FailedReadDoesNotAdvanceReceiveCounter) {
  Bytes payload = {1};
  Bytes bad = SealPayload(key_, kClientToServer, 3, wire::FrameType::kTask, payload);
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kTask, bad),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
  EXPECT_EQ(server_.frames_received(), 0u);

  // The genuine seq-0 frame still verifies afterwards.
  ASSERT_EQ(client_.Write(wire::FrameType::kTask, payload), wire::WriteStatus::kOk);
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk);
}

TEST_F(AuthChannelTest, AdminPlaneInterleavesWithoutPerturbingDataPlane) {
  // S2 regression: health probes and stats requests ride the same channel
  // as shard traffic but live on their own direction bytes and sequence
  // counters. Interleave the two planes heavily and assert the data-plane
  // counters advance exactly once per data frame.
  wire::Frame frame;
  for (int i = 0; i < 8; ++i) {
    // One data frame...
    Bytes task = {static_cast<uint8_t>(i)};
    ASSERT_EQ(client_.Write(wire::FrameType::kTask, task), wire::WriteStatus::kOk);
    ASSERT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk);
    EXPECT_EQ(frame.type, wire::FrameType::kTask);
    EXPECT_EQ(frame.payload, task);

    // ...then a burst of admin frames in both directions.
    wire::WireHealthProbe probe;
    probe.nonce = 0x1000u + static_cast<uint64_t>(i);
    ASSERT_EQ(client_.Write(wire::FrameType::kHealthProbe, probe.Serialize()),
              wire::WriteStatus::kOk);
    ASSERT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk);
    EXPECT_EQ(frame.type, wire::FrameType::kHealthProbe);
    auto decoded = wire::WireHealthProbe::Deserialize(frame.payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->nonce, probe.nonce);

    wire::WireHealthReply reply;
    reply.nonce = probe.nonce;
    reply.server_id = 3;
    reply.uptime_ms = 1234;
    ASSERT_EQ(server_.Write(wire::FrameType::kHealthReply, reply.Serialize()),
              wire::WriteStatus::kOk);
    ASSERT_EQ(client_.Read(&frame, 1000), wire::ReadStatus::kOk);
    EXPECT_EQ(frame.type, wire::FrameType::kHealthReply);

    // The matching data-plane result still verifies after the admin burst.
    Bytes result = {static_cast<uint8_t>(i), 0xFF};
    ASSERT_EQ(server_.Write(wire::FrameType::kResult, result), wire::WriteStatus::kOk);
    ASSERT_EQ(client_.Read(&frame, 1000), wire::ReadStatus::kOk);
    EXPECT_EQ(frame.type, wire::FrameType::kResult);
    EXPECT_EQ(frame.payload, result);
  }

  // Data plane saw exactly 8 frames each way; admin plane 8 each way too.
  EXPECT_EQ(client_.frames_sent(), 8u);
  EXPECT_EQ(client_.frames_received(), 8u);
  EXPECT_EQ(client_.admin_frames_sent(), 8u);
  EXPECT_EQ(client_.admin_frames_received(), 8u);
  EXPECT_EQ(server_.frames_sent(), 8u);
  EXPECT_EQ(server_.frames_received(), 8u);
  EXPECT_EQ(server_.admin_frames_sent(), 8u);
  EXPECT_EQ(server_.admin_frames_received(), 8u);
}

TEST_F(AuthChannelTest, CrossPlaneSpliceFailsAuthentication) {
  // A probe payload sealed under the DATA direction byte at the matching
  // admin sequence number must not verify as an admin frame: the direction
  // byte separates the planes even when an attacker lines the sequence
  // numbers up.
  wire::WireHealthProbe probe;
  probe.nonce = 42;
  Bytes sealed =
      SealPayload(key_, kClientToServer, 0, wire::FrameType::kHealthProbe,
                  probe.Serialize());
  ASSERT_EQ(wire::WriteFrame(client_fd_, wire::FrameType::kHealthProbe, sealed),
            wire::WriteStatus::kOk);
  wire::Frame frame;
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kAuthFailed);
  // Neither plane's receive counter moved.
  EXPECT_EQ(server_.frames_received(), 0u);
  EXPECT_EQ(server_.admin_frames_received(), 0u);

  // And the genuine admin-plane seq-0 probe still verifies afterwards.
  ASSERT_EQ(client_.Write(wire::FrameType::kHealthProbe, probe.Serialize()),
            wire::WriteStatus::kOk);
  EXPECT_EQ(server_.Read(&frame, 1000), wire::ReadStatus::kOk);
  EXPECT_EQ(server_.admin_frames_received(), 1u);
}

TEST_F(AuthChannelTest, OversizedPayloadRefusedAtWrite) {
  // A payload that would exceed kMaxFramePayload once the tag is appended
  // must be refused on the send side. The size check runs before any byte
  // is touched, so an over-length view avoids allocating 256 MB here.
  Bytes small(1);
  BytesView oversized(small.data(), wire::kMaxFramePayload - kMacTagSize + 1);
  EXPECT_EQ(client_.Write(wire::FrameType::kTask, oversized), wire::WriteStatus::kError);
}

}  // namespace
}  // namespace net
}  // namespace vdp
