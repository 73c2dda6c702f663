// Transport authentication for remote verifiers.
//
// The wire setup digest binds a task/result to its *parameters*, but says
// nothing about *who* produced it -- any process that saw the broadcast
// setup could forge a result frame. The socket transport therefore runs
// every post-hello frame through an HMAC channel:
//
//   session_key = HMAC(pre-shared secret,
//                      "vdp/net/session-key" || server_nonce || client_nonce)
//   tag         = HMAC(session_key,
//                      "vdp/net/frame" || direction || seq || type || payload)
//
// and the frame travels as payload || tag inside a standard wire frame (the
// header's length covers both). Per-direction sequence numbers start at 0
// and increment per frame, so a replayed, reordered, or cross-connection
// spliced frame fails verification even though the bytes are authentic. The
// nonces come from the connection hello pair (src/wire/ WireServerHello /
// WireClientHello), so every connection gets a fresh key from the same
// fleet secret.
//
// This is transport-level authentication with a shared secret: it
// authenticates fleet membership, not individual verifier identity, and it
// is not encryption (upload contents are broadcast-public in this protocol
// anyway). Key provisioning is deployment-side: see README "Deploying
// remote verifiers".
#ifndef SRC_NET_AUTH_H_
#define SRC_NET_AUTH_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/hmac.h"
#include "src/wire/frame_io.h"
#include "src/wire/wire_format.h"

namespace vdp {
namespace net {

inline constexpr size_t kMacTagSize = HmacSha256::kTagSize;
// The pre-shared fleet secret must carry at least this much entropy.
inline constexpr size_t kMinAuthKeyBytes = 16;

// Loads the fleet secret: the hex in `key_file` (whitespace ignored), or
// $VDP_REMOTE_AUTH_KEY when `key_file` is empty. nullopt when the file
// cannot be read, the hex is malformed, or the key is shorter than
// kMinAuthKeyBytes.
std::optional<Bytes> LoadAuthKey(const std::string& key_file);

using SessionKey = std::array<uint8_t, HmacSha256::kTagSize>;

// Frame directions (the MAC binds them so a server cannot echo a driver
// frame back as its own). The admin plane -- health probes and stats
// requests (wire::FrameType::kHealthProbe..kStatsReply) -- runs on its own
// direction bytes AND its own sequence counters: interleaving probes with
// shard traffic must never perturb the task/result sequence space, and the
// distinct direction byte makes a cross-plane splice fail the MAC even at
// an equal sequence number.
inline constexpr uint8_t kClientToServer = 0;
inline constexpr uint8_t kServerToClient = 1;
inline constexpr uint8_t kClientToServerAdmin = 2;
inline constexpr uint8_t kServerToClientAdmin = 3;

// True for the admin-plane frame types. The frame type is MAC-bound, so the
// two planes can never be confused by relabeling.
inline constexpr bool IsAdminFrameType(wire::FrameType type) {
  return type == wire::FrameType::kHealthProbe ||
         type == wire::FrameType::kHealthReply ||
         type == wire::FrameType::kStatsRequest ||
         type == wire::FrameType::kStatsReply;
}

// Derives the per-connection MAC key from the fleet secret and the two
// hello nonces. Both sides compute it; it never crosses the wire.
SessionKey DeriveSessionKey(BytesView shared_secret, BytesView server_nonce,
                            BytesView client_nonce);

// The HMAC tag over one frame exchange.
HmacSha256::Tag FrameTag(const SessionKey& key, uint8_t direction, uint64_t seq,
                         wire::FrameType type, BytesView payload);

// payload || tag, ready to travel as a wire frame payload.
Bytes SealPayload(const SessionKey& key, uint8_t direction, uint64_t seq,
                  wire::FrameType type, BytesView payload);

// Splits and verifies a sealed payload; nullopt when the trailer is missing
// or the MAC does not verify (wrong key, wrong seq/direction, tampered
// bytes). Verification is constant-time in the tag comparison.
std::optional<Bytes> OpenPayload(const SessionKey& key, uint8_t direction, uint64_t seq,
                                 wire::FrameType type, BytesView sealed);

// One authenticated frame stream over a connected fd: WriteFrame/ReadFrame
// with the seal/open transform and the per-direction sequence counters
// applied. A failed read never advances the receive counter, so one
// tampered frame poisons the connection (the driver's blame/reconnect
// machinery handles the rest) instead of desynchronizing silently.
//
// Admin-plane frames (IsAdminFrameType) are sealed/opened under the admin
// direction bytes and tracked on separate sequence counters, so a channel
// can carry probe/stats traffic between shards without shifting the data
// plane's sequence numbers -- frames_sent()/frames_received() count the
// data plane only.
class AuthChannel {
 public:
  AuthChannel() = default;
  // is_client: drivers send kClientToServer and expect kServerToClient;
  // servers the reverse.
  AuthChannel(int fd, const SessionKey& key, bool is_client)
      : fd_(fd), key_(key),
        send_dir_(is_client ? kClientToServer : kServerToClient),
        recv_dir_(is_client ? kServerToClient : kClientToServer) {}

  // Seals and writes one frame. kError when the sealed payload would exceed
  // kMaxFramePayload (callers budget kMacTagSize on top of their payload).
  wire::WriteStatus Write(wire::FrameType type, BytesView payload, int timeout_ms = -1);

  // Reads and opens one frame; kAuthFailed when the MAC check fails.
  wire::ReadStatus Read(wire::Frame* out, int timeout_ms);

  int fd() const { return fd_; }
  uint64_t frames_sent() const { return send_seq_; }
  uint64_t frames_received() const { return recv_seq_; }
  uint64_t admin_frames_sent() const { return admin_send_seq_; }
  uint64_t admin_frames_received() const { return admin_recv_seq_; }

 private:
  int fd_ = -1;
  SessionKey key_{};
  uint8_t send_dir_ = kClientToServer;
  uint8_t recv_dir_ = kServerToClient;
  uint64_t send_seq_ = 0;
  uint64_t recv_seq_ = 0;
  // The admin plane's independent sequence space (probe/stats frames).
  uint64_t admin_send_seq_ = 0;
  uint64_t admin_recv_seq_ = 0;
};

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_AUTH_H_
