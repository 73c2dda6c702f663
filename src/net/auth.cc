#include "src/net/auth.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/common/hex.h"
#include "src/common/serialize.h"
#include "src/obs/metrics.h"

namespace vdp {
namespace net {

namespace {

// Domain-separation prefixes. Fixed-length fields follow the prefix, with
// the only variable-length field (the payload) last, so the MAC input is
// unambiguous without length framing.
constexpr char kSessionKeyDomain[] = "vdp/net/session-key";
constexpr char kFrameDomain[] = "vdp/net/frame";

void UpdateU64(HmacSha256* mac, uint64_t v) {
  uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  mac->Update(BytesView(buf, sizeof(buf)));
}

}  // namespace

std::optional<Bytes> LoadAuthKey(const std::string& key_file) {
  std::string key_hex;
  if (!key_file.empty()) {
    FILE* f = std::fopen(key_file.c_str(), "r");
    if (f == nullptr) {
      return std::nullopt;
    }
    char c;
    while (std::fread(&c, 1, 1, f) == 1) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        key_hex.push_back(c);
      }
    }
    std::fclose(f);
  } else if (const char* env = std::getenv("VDP_REMOTE_AUTH_KEY")) {
    key_hex = env;
  }
  std::optional<Bytes> key = HexDecode(key_hex);
  if (!key.has_value() || key->size() < kMinAuthKeyBytes) {
    return std::nullopt;
  }
  return key;
}

SessionKey DeriveSessionKey(BytesView shared_secret, BytesView server_nonce,
                            BytesView client_nonce) {
  HmacSha256 mac(shared_secret);
  mac.Update(StrView(kSessionKeyDomain));
  mac.Update(server_nonce);
  mac.Update(client_nonce);
  return mac.Finalize();
}

HmacSha256::Tag FrameTag(const SessionKey& key, uint8_t direction, uint64_t seq,
                         wire::FrameType type, BytesView payload) {
  HmacSha256 mac(BytesView(key.data(), key.size()));
  mac.Update(StrView(kFrameDomain));
  mac.Update(BytesView(&direction, 1));
  UpdateU64(&mac, seq);
  const uint8_t type_byte = static_cast<uint8_t>(type);
  mac.Update(BytesView(&type_byte, 1));
  mac.Update(payload);
  return mac.Finalize();
}

Bytes SealPayload(const SessionKey& key, uint8_t direction, uint64_t seq,
                  wire::FrameType type, BytesView payload) {
  HmacSha256::Tag tag = FrameTag(key, direction, seq, type, payload);
  Bytes sealed;
  sealed.reserve(payload.size() + tag.size());
  sealed.insert(sealed.end(), payload.begin(), payload.end());
  sealed.insert(sealed.end(), tag.begin(), tag.end());
  return sealed;
}

std::optional<Bytes> OpenPayload(const SessionKey& key, uint8_t direction, uint64_t seq,
                                 wire::FrameType type, BytesView sealed) {
  if (sealed.size() < kMacTagSize) {
    return std::nullopt;
  }
  const BytesView payload = sealed.subspan(0, sealed.size() - kMacTagSize);
  const BytesView tag = sealed.subspan(sealed.size() - kMacTagSize);
  HmacSha256::Tag expected = FrameTag(key, direction, seq, type, payload);
  if (!HmacSha256::Verify(expected, tag)) {
    return std::nullopt;
  }
  return Bytes(payload.begin(), payload.end());
}

wire::WriteStatus AuthChannel::Write(wire::FrameType type, BytesView payload,
                                     int timeout_ms) {
  if (payload.size() + kMacTagSize > wire::kMaxFramePayload) {
    return wire::WriteStatus::kError;
  }
  // Admin frames seal under the admin direction byte and the admin plane's
  // own counter: probe/stats traffic never moves the data-plane sequence.
  const bool admin = IsAdminFrameType(type);
  const uint8_t dir = admin ? static_cast<uint8_t>(send_dir_ + 2) : send_dir_;
  uint64_t& seq = admin ? admin_send_seq_ : send_seq_;
  Bytes sealed = SealPayload(key_, dir, seq, type, payload);
  wire::WriteStatus status = wire::WriteFrame(fd_, type, sealed, timeout_ms);
  if (status == wire::WriteStatus::kOk) {
    ++seq;
  }
  return status;
}

wire::ReadStatus AuthChannel::Read(wire::Frame* out, int timeout_ms) {
  wire::Frame frame;
  wire::ReadStatus status = wire::ReadFrame(fd_, &frame, timeout_ms);
  if (status != wire::ReadStatus::kOk) {
    return status;
  }
  // The header's type picks the plane; the MAC binds the type, so a data
  // frame relabeled as admin (or vice versa) fails verification here.
  const bool admin = IsAdminFrameType(frame.type);
  const uint8_t dir = admin ? static_cast<uint8_t>(recv_dir_ + 2) : recv_dir_;
  uint64_t& seq = admin ? admin_recv_seq_ : recv_seq_;
  auto payload = OpenPayload(key_, dir, seq, frame.type, frame.payload);
  if (!payload.has_value()) {
    obs::GlobalCounter(obs::kAuthFailures)->Increment();
    return wire::ReadStatus::kAuthFailed;
  }
  ++seq;
  out->type = frame.type;
  out->payload = std::move(*payload);
  return wire::ReadStatus::kOk;
}

}  // namespace net
}  // namespace vdp
