#include "src/sigma/transcript.h"

#include "src/common/serialize.h"

namespace vdp {
namespace {

// Feeds the u32 length prefix of a Writer::Blob.
void UpdateLength(Sha256& h, size_t len) {
  const std::array<uint8_t, 4> bytes = EncodeU32(static_cast<uint32_t>(len));
  h.Update(BytesView(bytes.data(), bytes.size()));
}

}  // namespace

Transcript::Transcript(std::string_view protocol_label) {
  state_ = Sha256::TaggedHash(StrView("vdp/transcript-init"), StrView(protocol_label));
}

void Transcript::Absorb(std::string_view tag_head, std::string_view tag_tail, BytesView data) {
  Sha256 h;
  h.Update(StrView("vdp/transcript-absorb"));
  h.Update(BytesView(state_.data(), state_.size()));
  UpdateLength(h, tag_head.size() + tag_tail.size());
  h.Update(StrView(tag_head));
  h.Update(StrView(tag_tail));
  UpdateLength(h, data.size());
  h.Update(data);
  state_ = h.Finalize();
}

void Transcript::Append(std::string_view label, BytesView data) {
  Absorb(label, {}, data);
}

void Transcript::AppendU64(std::string_view label, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  Append(label, BytesView(bytes, sizeof(bytes)));
}

Sha256::Digest Transcript::ChallengeBytes(std::string_view label) {
  Sha256 h;
  h.Update(StrView("vdp/transcript-challenge"));
  h.Update(BytesView(state_.data(), state_.size()));
  h.Update(StrView(label));
  Sha256::Digest challenge = h.Finalize();
  Absorb(label, "/challenge", BytesView(challenge.data(), challenge.size()));
  return challenge;
}

}  // namespace vdp
