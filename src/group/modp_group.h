// Prime-order subgroups of Z_p*: the order-q subgroup for a prime
// p = q * cofactor + 1 (src/group/modp_params.h). This is the "Gq subset of
// Z_p* based on the finite field discrete log problem" instantiation the
// paper benchmarks. A safe prime (cofactor 2) gives the quadratic residues
// with (p-1)/2-sized scalars; the DSA/Schnorr-style sets keep scalars at 4
// limbs (QL) whatever the modulus size, so exponentiation costs ~256
// squarings instead of ~|p|.
//
// Elements are stored in plain (non-Montgomery) representation and always
// satisfy 1 <= e < p with e^q = 1. Decode() enforces subgroup membership with
// one q-exponentiation, so adversarial wire input cannot smuggle in elements
// whose order divides the cofactor.
#ifndef SRC_GROUP_MODP_GROUP_H_
#define SRC_GROUP_MODP_GROUP_H_

#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/group/modp_params.h"
#include "src/group/scalar_field.h"

namespace vdp {

template <size_t L, size_t QL, const ModPParams<L, QL>& (*Params)()>
class ModPGroup {
 public:
  static constexpr size_t kLimbs = L;
  static constexpr size_t kElementSize = BigInt<L>::kBytes;

  struct ScalarTag {
    static const BigInt<QL>& Order() { return Params().q; }
  };
  using Scalar = ScalarField<QL, ScalarTag>;

  class Element {
   public:
    Element() : v_(BigInt<L>::One()) {}  // identity

    const BigInt<L>& value() const { return v_; }

    friend bool operator==(const Element& a, const Element& b) { return a.v_ == b.v_; }
    friend bool operator!=(const Element& a, const Element& b) { return a.v_ != b.v_; }

   private:
    friend class ModPGroup;
    explicit Element(const BigInt<L>& v) : v_(v) {}
    BigInt<L> v_;
  };

  // Acceleration kernel (see src/group/group.h): values held in Montgomery
  // form so the MulMont/SqrMont round-trips of the public Mul disappear from
  // table and MSM inner loops. "Affine" and accumulator forms coincide.
  struct Accel {
    using P = BigInt<L>;
    using A = BigInt<L>;
    static constexpr bool kCheapNegate = false;

    static P Identity() { return PCtx().r(); }  // 1 in Montgomery form
    static P Lift(const Element& e) { return PCtx().ToMont(e.v_); }
    static Element Lower(const P& p) { return Element(PCtx().FromMont(p)); }
    static A ToA(const P& p) { return p; }
    static void Normalize(const std::vector<P>& pts, std::vector<A>* out) {
      *out = pts;
    }
    static P Add(const P& a, const P& b) { return PCtx().MulMont(a, b); }
    static P AddA(const P& a, const A& b) { return PCtx().MulMont(a, b); }
    static P Dbl(const P& a) { return PCtx().SqrMont(a); }
    static A NegA(const A& a) {
      return PCtx().ToMont(PCtx().Inverse(PCtx().FromMont(a)));
    }
  };

  static std::string Name() { return Params().name; }

  static Element Identity() { return Element(); }

  static Element Generator() { return Element(Params().g); }

  // Group operation (modular multiplication).
  static Element Mul(const Element& a, const Element& b) {
    return Element(PCtx().MulMod(a.v_, b.v_));
  }

  // Exponentiation by a scalar in Z_q.
  static Element Exp(const Element& base, const Scalar& e) {
    return Element(PCtx().ExpMod(base.v_, e.value()));
  }

  static Element Inverse(const Element& a) { return Element(PCtx().Inverse(a.v_)); }

  // g^e for the fixed generator.
  static Element ExpG(const Scalar& e) { return Exp(Generator(), e); }

  static Bytes Encode(const Element& e) { return e.v_.ToBytesBe(); }

  // Strict decode: correct width, in range (0, p), and in the order-q subgroup.
  static std::optional<Element> Decode(BytesView bytes) {
    if (bytes.size() != kElementSize) {
      return std::nullopt;
    }
    auto v = BigInt<L>::FromBytesBe(bytes);
    if (!v.has_value() || v->IsZero() || *v >= Params().p) {
      return std::nullopt;
    }
    Element e(*v);
    if (!InSubgroup(e)) {
      return std::nullopt;
    }
    return e;
  }

  // Decode of in[0..n), one at a time (see Ed25519Group::DecodeBatch).
  static void DecodeBatch(const BytesView* in, size_t n, Element* const* out, bool* ok) {
    for (size_t i = 0; i < n; ++i) {
      auto e = Decode(in[i]);
      ok[i] = e.has_value();
      if (ok[i]) {
        *out[i] = *e;
      }
    }
  }

  // Membership test: e^q == 1 (q is the subgroup order).
  static bool InSubgroup(const Element& e) {
    return PCtx().template ExpMod<QL>(e.v_, Params().q) == BigInt<L>::One();
  }

  // Derives an element of the subgroup from a domain-separated hash: a
  // pseudorandom field element raised to the cofactor lands in the order-q
  // subgroup, and since q is prime every non-identity result generates it.
  static Element HashToGroup(BytesView domain, BytesView msg) {
    for (uint64_t counter = 0;; ++counter) {
      Sha256 h;
      h.Update(StrView(Params().hash_domain));
      uint8_t dlen = static_cast<uint8_t>(domain.size());
      h.Update(BytesView(&dlen, 1));
      h.Update(domain);
      h.Update(msg);
      uint8_t ctr[8];
      for (int i = 0; i < 8; ++i) {
        ctr[i] = static_cast<uint8_t>(counter >> (8 * i));
      }
      h.Update(BytesView(ctr, 8));
      // Expand the 32-byte digest to L limbs of pseudorandom data.
      Bytes wide;
      Sha256::Digest block = h.Finalize();
      while (wide.size() < kElementSize) {
        wide.insert(wide.end(), block.begin(), block.end());
        block = Sha256::Hash(BytesView(block.data(), block.size()));
      }
      wide.resize(kElementSize);
      auto u = BigInt<L>::FromBytesBe(wide);
      BigInt<L> reduced = Mod(*u, Params().p);
      if (reduced.IsZero()) {
        continue;
      }
      BigInt<L> cleared = PCtx().ExpMod(reduced, Params().cofactor);
      if (cleared != BigInt<L>::One()) {
        return Element(cleared);
      }
    }
  }

 private:
  static const MontgomeryCtx<L>& PCtx() {
    static const MontgomeryCtx<L> ctx(Params().p);
    return ctx;
  }
};

// Parameter sets. ModP64 exists solely for memory/throughput soak runs that
// need millions of cheap-but-real proofs (tools/stream_soak) and ModP256 is
// for fast tests only -- neither has any security margin; ModP2048 matches
// contemporary guidance for finite-field DLOG. Schnorr512 and Schnorr2048
// are the short-exponent (256-bit q) sets.
using ModP64 = ModPGroup<1, 1, ModP64Params>;
using ModP256 = ModPGroup<4, 4, ModP256Params>;
using ModP512 = ModPGroup<8, 8, ModP512Params>;
using ModP1024 = ModPGroup<16, 16, ModP1024Params>;
using ModP2048 = ModPGroup<32, 32, ModP2048Params>;
using Schnorr512 = ModPGroup<8, 4, Schnorr512Params>;
using Schnorr2048 = ModPGroup<32, 4, Schnorr2048Params>;

}  // namespace vdp

#endif  // SRC_GROUP_MODP_GROUP_H_
