#include "src/common/serialize.h"

namespace vdp {

void Writer::U8(uint8_t v) {
  out_.push_back(v);
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::Blob(BytesView data) {
  U32(static_cast<uint32_t>(data.size()));
  Raw(data);
}

void Writer::Raw(BytesView data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

std::optional<uint8_t> Reader::U8() {
  if (remaining() < 1) {
    return std::nullopt;
  }
  return data_[pos_++];
}

std::optional<uint32_t> Reader::U32() {
  if (remaining() < 4) {
    return std::nullopt;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::optional<uint64_t> Reader::U64() {
  if (remaining() < 8) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::optional<Bytes> Reader::Blob() {
  auto len = U32();
  if (!len.has_value()) {
    return std::nullopt;
  }
  return Raw(*len);
}

std::optional<uint32_t> Reader::Count(size_t min_entry_bytes) {
  auto n = U32();
  if (!n.has_value() || *n > remaining() / min_entry_bytes) {
    return std::nullopt;
  }
  return n;
}

std::optional<Bytes> Reader::Raw(size_t len) {
  if (remaining() < len) {
    return std::nullopt;
  }
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + len);
  pos_ += len;
  return out;
}

}  // namespace vdp
