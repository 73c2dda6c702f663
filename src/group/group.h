// The prime-order group abstraction every protocol layer builds on.
//
// A PrimeOrderGroup is a cyclic group of prime order q where the discrete
// logarithm problem is assumed hard, together with its scalar field Z_q.
// Two backends are provided: prime-order subgroups of Z_p* (one template,
// modp_group.h, over the safe-prime and short-exponent parameter sets) and
// the Edwards25519 subgroup (ed25519.h). Protocol code is generic over the
// backend; explicit instantiations live at the bottom of the protocol .cc
// files.
#ifndef SRC_GROUP_GROUP_H_
#define SRC_GROUP_GROUP_H_

#include <algorithm>
#include <concepts>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/common/thread_pool.h"
#include "src/group/ed25519.h"
#include "src/group/modp_group.h"

namespace vdp {

template <typename S>
concept GroupScalar = requires(const S& s, SecureRng& rng, BytesView bytes) {
  { S::Zero() } -> std::same_as<S>;
  { S::One() } -> std::same_as<S>;
  { S::Random(rng) } -> std::same_as<S>;
  { S::FromU64(uint64_t{}) } -> std::same_as<S>;
  { S::FromBytesWide(bytes) } -> std::same_as<S>;
  { S::Decode(bytes) } -> std::same_as<std::optional<S>>;
  { s + s } -> std::same_as<S>;
  { s - s } -> std::same_as<S>;
  { s* s } -> std::same_as<S>;
  { -s } -> std::same_as<S>;
  { s.Inverse() } -> std::same_as<S>;
  { s.Encode() } -> std::same_as<Bytes>;
  { s == s } -> std::convertible_to<bool>;
};

// Every group also declares an acceleration kernel, G::Accel. The generic
// multi-exponentiation code (FixedBaseTable, Pippenger MSM) does thousands of
// group operations per call, and the public API is the wrong currency for
// that: the Z_p* Mul converts to Montgomery form and back on every call, and
// Ed25519Group's Exp pays a field inversion per affine conversion. The kernel
// is the group's internal fast-path representation, exposed just enough for
// the templated exp code:
//
//   struct Accel {
//     using P = ...;   // accumulator form (Montgomery residue / extended point)
//     using A = ...;   // table form for mixed additions (residue / Niels point)
//     static constexpr bool kCheapNegate;  // NegA is ~free (curve groups)
//     static P Identity();
//     static P Lift(const G::Element&);    // public -> accumulator form
//     static G::Element Lower(const P&);   // accumulator -> public form
//     static A ToA(const P&);              // single conversion (may invert)
//     static void Normalize(const std::vector<P>&, std::vector<A>*);  // batch
//     static P Add(const P&, const P&);
//     static P AddA(const P&, const A&);   // mixed add (the table hot path)
//     static P Dbl(const P&);
//     static A NegA(const A&);             // only called when kCheapNegate
//   };
template <typename G>
concept PrimeOrderGroup =
    GroupScalar<typename G::Scalar> &&
    requires(const typename G::Element& e, const typename G::Scalar& s, BytesView bytes,
             typename G::Element* const* slots, bool* ok) {
      { G::Name() } -> std::convertible_to<std::string>;
      { G::Identity() } -> std::same_as<typename G::Element>;
      { G::Generator() } -> std::same_as<typename G::Element>;
      { G::Mul(e, e) } -> std::same_as<typename G::Element>;
      { G::Exp(e, s) } -> std::same_as<typename G::Element>;
      { G::ExpG(s) } -> std::same_as<typename G::Element>;
      { G::Inverse(e) } -> std::same_as<typename G::Element>;
      { G::Encode(e) } -> std::same_as<Bytes>;
      { G::Decode(bytes) } -> std::same_as<std::optional<typename G::Element>>;
      { G::DecodeBatch(&bytes, size_t{}, slots, ok) } -> std::same_as<void>;
      { G::HashToGroup(bytes, bytes) } -> std::same_as<typename G::Element>;
      { e == e } -> std::convertible_to<bool>;
      { G::Accel::Lower(G::Accel::Lift(e)) } -> std::same_as<typename G::Element>;
    };

static_assert(PrimeOrderGroup<ModP256>);
static_assert(PrimeOrderGroup<ModP512>);
static_assert(PrimeOrderGroup<ModP1024>);
static_assert(PrimeOrderGroup<ModP2048>);
static_assert(PrimeOrderGroup<Ed25519Group>);
static_assert(PrimeOrderGroup<Schnorr512>);
static_assert(PrimeOrderGroup<Schnorr2048>);

// Division (exponentiation by the inverse is never needed; this is the group
// operation with the second operand inverted): a / b = a * b^{-1}.
template <PrimeOrderGroup G>
typename G::Element Div(const typename G::Element& a, const typename G::Element& b) {
  return G::Mul(a, G::Inverse(b));
}

namespace group_internal {

template <typename G, typename = void>
struct HasEncodeBatch : std::false_type {};

template <typename G>
struct HasEncodeBatch<G, std::void_t<decltype(G::EncodeBatch(
                             std::declval<const std::vector<typename G::Element>&>()))>>
    : std::true_type {};

}  // namespace group_internal

// Encode a set of elements, using the group's batch encoder when it has one.
// Curve groups pay a field inversion per Encode; EncodeBatch shares one
// inversion across the whole set, which matters in transcript construction
// (every proof absorbs several element encodings).
template <PrimeOrderGroup G>
std::vector<Bytes> EncodeAll(const std::vector<typename G::Element>& es) {
  if constexpr (group_internal::HasEncodeBatch<G>::value) {
    return G::EncodeBatch(es);
  } else {
    std::vector<Bytes> out;
    out.reserve(es.size());
    for (const auto& e : es) {
      out.push_back(G::Encode(e));
    }
    return out;
  }
}

// The shortest blobs (u32 length, then the bytes) that strict decoding
// accepts for an element and for a scalar. Parsers cap attacker-chosen
// counts with them (Reader::Count): a count whose entries could not fit in
// the bytes left fails to parse anyway, and rejecting it first keeps every
// container sized from a count within a small multiple of the input.
template <PrimeOrderGroup G>
inline constexpr size_t kElementBlobBytes = Reader::kMinBlobBytes + G::kElementSize;
template <PrimeOrderGroup G>
inline constexpr size_t kScalarBlobBytes = Reader::kMinBlobBytes + G::Scalar::kEncodedSize;

// The element blobs a framing pass collected, each with the slot its element
// decodes into, in the order they were added. The bulk parsers
// (src/core/messages.h) frame their input on the calling thread and then
// decode every element of it with one Decode call.
template <PrimeOrderGroup G>
class ElementBlobs {
 public:
  // Entries go to G::DecodeBatch, and to the pool, this many at a time: one
  // ed25519 batch fills an eight-lane vector per exponentiation.
  static constexpr size_t kDecodeChunk = 8;

  // `blob` must outlive the decode; `slot` must be an element that already
  // exists, for the decode only overwrites it.
  void Add(BytesView blob, typename G::Element* slot) {
    blobs_.push_back(blob);
    slots_.push_back(slot);
  }
  size_t size() const { return blobs_.size(); }

  // Strictly decodes (G::DecodeBatch, subgroup check included) entries
  // [from, to) into their slots, on `pool` when there is one and inline
  // otherwise, and sets failed[i - from] to 1 for each entry that did not
  // decode and to 0 for the rest. Workers only overwrite fixed-size slots and
  // verdicts and keep their scratch on the stack, so nothing is allocated
  // off the calling thread. A failed entry's slot holds an unspecified
  // element.
  //
  // Never call this from inside a task running on `pool` -- in particular,
  // never with GlobalPool() from a GlobalPool task: ParallelFor from one of
  // the pool's own workers waits for shards queued behind it and can
  // deadlock.
  void DecodeEach(size_t from, size_t to, ThreadPool* pool, uint8_t* failed) const {
    const size_t chunks = (to - from + kDecodeChunk - 1) / kDecodeChunk;
    ForEachIndex(pool, chunks, [&](size_t c) {
      const size_t lo = from + c * kDecodeChunk;
      const size_t n = std::min(kDecodeChunk, to - lo);
      bool ok[kDecodeChunk] = {};
      G::DecodeBatch(blobs_.data() + lo, n, slots_.data() + lo, ok);
      for (size_t i = 0; i < n; ++i) {
        failed[lo - from + i] = ok[i] ? 0 : 1;
      }
    });
  }

  // Whether every entry in [from, to) decoded (DecodeEach's verdicts,
  // folded). After a failure the slots hold unspecified elements.
  bool Decode(size_t from, size_t to, ThreadPool* pool) const {
    std::vector<uint8_t> failed(to - from);
    DecodeEach(from, to, pool, failed.data());
    return std::none_of(failed.begin(), failed.end(), [](uint8_t f) { return f != 0; });
  }
  bool Decode(ThreadPool* pool) const { return Decode(0, size(), pool); }

 private:
  std::vector<BytesView> blobs_;
  std::vector<typename G::Element*> slots_;
};

}  // namespace vdp

#endif  // SRC_GROUP_GROUP_H_
