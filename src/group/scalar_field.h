// Prime-field scalars Z_q shared by every group backend.
//
// ScalarField<L, Tag> wraps a BigInt<L> that is always fully reduced modulo
// Tag::Order(). All arithmetic routes through a per-field Montgomery context.
// Scalars are the exponents of the Schnorr groups and the scalars of the
// Edwards curve; they are also the message/randomness space of the Pedersen
// commitment scheme (Mpp = Rpp = Z_q in the paper's notation).
#ifndef SRC_GROUP_SCALAR_FIELD_H_
#define SRC_GROUP_SCALAR_FIELD_H_

#include <optional>

#include "src/common/rng.h"
#include "src/math/montgomery.h"
#include "src/math/primality.h"

namespace vdp {

template <size_t L, typename Tag>
class ScalarField {
 public:
  using Int = BigInt<L>;
  static constexpr size_t kEncodedSize = Int::kBytes;

  constexpr ScalarField() = default;

  static ScalarField Zero() { return ScalarField(); }
  static ScalarField One() { return FromU64(1); }

  static ScalarField FromU64(uint64_t v) {
    ScalarField s;
    s.v_ = Mod(Int::FromU64(v), Order());
    return s;
  }

  // Reduces an arbitrary L-limb integer into the field.
  static ScalarField FromInt(const Int& v) {
    ScalarField s;
    s.v_ = Mod(v, Order());
    return s;
  }

  // Uniform scalar via rejection sampling.
  static ScalarField Random(SecureRng& rng) {
    ScalarField s;
    s.v_ = RandomBelow(Order(), rng);
    return s;
  }

  // Interprets big-endian bytes of any length as an integer and reduces it
  // mod q. Used to map hash outputs (Fiat-Shamir challenges, batch
  // combiners) into the field. Horner's rule over L-limb chunks, kept in
  // Montgomery form: acc <- acc * R + chunk is MulMont(acc, R^2) +
  // MulMont(chunk, R^2), valid for any chunk < R since q < R is odd; one
  // MulMont by 1 leaves Montgomery form. Two products per chunk, no division.
  static ScalarField FromBytesWide(BytesView bytes) {
    const MontgomeryCtx<L>& ctx = Ctx();
    Int acc;  // Montgomery form of the prefix folded so far
    size_t head = bytes.size() % Int::kBytes;
    if (head == 0 && !bytes.empty()) {
      head = Int::kBytes;
    }
    for (size_t pos = 0; pos < bytes.size(); pos += head, head = Int::kBytes) {
      Int chunk = *Int::FromBytesBe(bytes.subspan(pos, head));
      Int chunk_mont = ctx.MulMont(chunk, ctx.r2());
      acc = pos == 0 ? chunk_mont : AddMod(ctx.MulMont(acc, ctx.r2()), chunk_mont, Order());
    }
    ScalarField s;
    s.v_ = ctx.FromMont(acc);
    return s;
  }

  static const Int& Order() { return Tag::Order(); }

  const Int& value() const { return v_; }
  bool IsZero() const { return v_.IsZero(); }

  // The counting-query results are small; expose them as machine integers.
  // Returns nullopt if the value does not fit in 64 bits.
  std::optional<uint64_t> ToU64() const {
    for (size_t i = 1; i < L; ++i) {
      if (v_.limb[i] != 0) {
        return std::nullopt;
      }
    }
    return v_.limb[0];
  }

  friend ScalarField operator+(const ScalarField& a, const ScalarField& b) {
    ScalarField r;
    r.v_ = AddMod(a.v_, b.v_, Order());
    return r;
  }

  friend ScalarField operator-(const ScalarField& a, const ScalarField& b) {
    ScalarField r;
    r.v_ = SubMod(a.v_, b.v_, Order());
    return r;
  }

  ScalarField operator-() const {
    ScalarField r;
    r.v_ = SubMod(Int::Zero(), v_, Order());
    return r;
  }

  friend ScalarField operator*(const ScalarField& a, const ScalarField& b) {
    ScalarField r;
    r.v_ = Ctx().MulMod(a.v_, b.v_);
    return r;
  }

  ScalarField& operator+=(const ScalarField& o) { return *this = *this + o; }
  ScalarField& operator-=(const ScalarField& o) { return *this = *this - o; }
  ScalarField& operator*=(const ScalarField& o) { return *this = *this * o; }

  // Multiplicative inverse; requires a nonzero scalar (q is prime).
  ScalarField Inverse() const {
    ScalarField r;
    r.v_ = Ctx().Inverse(v_);
    return r;
  }

  friend bool operator==(const ScalarField& a, const ScalarField& b) { return a.v_ == b.v_; }
  friend bool operator!=(const ScalarField& a, const ScalarField& b) { return a.v_ != b.v_; }

  Bytes Encode() const { return v_.ToBytesBe(); }

  // Strict decoding: fixed width and fully reduced.
  static std::optional<ScalarField> Decode(BytesView bytes) {
    if (bytes.size() != kEncodedSize) {
      return std::nullopt;
    }
    auto v = Int::FromBytesBe(bytes);
    if (!v.has_value() || *v >= Order()) {
      return std::nullopt;
    }
    ScalarField s;
    s.v_ = *v;
    return s;
  }

 private:
  static const MontgomeryCtx<L>& Ctx() {
    static const MontgomeryCtx<L> ctx(Order());
    return ctx;
  }

  Int v_{};
};

}  // namespace vdp

#endif  // SRC_GROUP_SCALAR_FIELD_H_
