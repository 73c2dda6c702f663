// Minimal binary serialization for protocol messages: little-endian integers
// and length-prefixed byte strings, with a bounds-checked reader.
#ifndef SRC_COMMON_SERIALIZE_H_
#define SRC_COMMON_SERIALIZE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/bytes.h"

namespace vdp {

// The u32 little-endian encoding Writer::U32 appends.
inline std::array<uint8_t, 4> EncodeU32(uint32_t v) {
  return {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v >> 16),
          static_cast<uint8_t>(v >> 24)};
}

class Writer {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  // Length-prefixed (u32) byte string.
  void Blob(BytesView data);
  // Raw bytes without prefix (fixed-size fields whose length both sides know).
  void Raw(BytesView data);

  const Bytes& bytes() const { return out_; }
  Bytes Take() { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  // Smallest encoding of one Blob: its u32 length prefix.
  static constexpr size_t kMinBlobBytes = 4;

  explicit Reader(BytesView data) : data_(data) {}

  std::optional<uint8_t> U8();
  std::optional<uint32_t> U32();
  std::optional<uint64_t> U64();
  std::optional<Bytes> Blob();
  // The same blob without a copy: a view into the input, valid as long as
  // the input is.
  std::optional<BytesView> BlobView();
  std::optional<Bytes> Raw(size_t len);
  // A u32 entry count, rejected unless the remaining bytes could hold that
  // many entries of at least min_entry_bytes each. Parsers read every
  // attacker-chosen count through this before allocating or looping, so a
  // short input claiming 2^32 - 1 entries fails fast.
  std::optional<uint32_t> Count(size_t min_entry_bytes);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  BytesView data_;
  size_t pos_ = 0;
};

}  // namespace vdp

#endif  // SRC_COMMON_SERIALIZE_H_
