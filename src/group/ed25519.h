// Edwards25519: the prime-order subgroup of the twisted Edwards curve
// -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255 - 19).
//
// The group exposed here is the order-l subgroup (l = 2^252 + 27742...).
// Decode() performs a full subgroup check, and HashToGroup clears the
// cofactor, so every Element handled by the protocols has prime order. This
// substitutes for the paper's Ristretto instantiation (see DESIGN.md).
//
// Strict decoding is the public auditor's per-element cost, so it is built
// from field exponentiations rather than point arithmetic:
//   - decompression takes x from RFC 8032's fused square-root ratio
//     x = u v^3 (u v^7)^((p-5)/8) -- one exponentiation, no inversion;
//   - the subgroup check halves instead of multiplying by l. The curve group
//     is E(F_p) = Z/8 x Z/l, so P has order dividing l iff P = 8R for a
//     rational R, iff P can be halved three times without leaving F_p. Each
//     halving is a square-root test on the Montgomery u-coordinate, so the
//     check costs 4 field exponentiations (~254 squarings each) instead of
//     the ~252 point doublings of [l]P. The argument and the formulas are at
//     the lockstep decoder in ed25519.cc.
// So a decode is five exponentiations to (p-5)/8 with a little scalar work
// between them. DecodeBatch runs up to eight encodings through those five
// phases together: after each phase every lane does its own scalar checks
// and a lane that fails drops out, and before each phase one
// Fe25519::PowP58Batch raises the radicands of every live lane -- eight
// lanes per AVX-512 IFMA vector where the CPU has it, four interleaved
// scalar chains elsewhere (see ed25519_field.h). Decode is the same steps
// on one lane; the bulk parsers reach DecodeBatch through ElementBlobs.
// Decode, DecodeBatch and InSubgroup are variable-time. They only ever see
// public encodings -- transcripts, uploads, wire frames -- never a secret.
#ifndef SRC_GROUP_ED25519_H_
#define SRC_GROUP_ED25519_H_

#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/group/ed25519_field.h"
#include "src/group/scalar_field.h"

namespace vdp {

// Point in extended homogeneous coordinates (x = X/Z, y = Y/Z, T = XY/Z).
struct GePoint {
  Fe25519 x;
  Fe25519 y;
  Fe25519 z;
  Fe25519 t;
};

// Precomputed affine point in Niels form: (y+x, y-x, 2*d*x*y) with z = 1.
// Mixed addition against this form costs 7 field muls (vs 9 for the unified
// projective add), and negation is a swap plus one field negation -- which is
// what makes signed-digit combs and wNAF tables pay off.
struct GeNiels {
  Fe25519 ypx;
  Fe25519 ymx;
  Fe25519 t2d;
};

class Ed25519Group {
 public:
  static constexpr size_t kElementSize = 32;

  struct ScalarTag {
    static const BigInt<4>& Order();  // l = 2^252 + 27742317777372353535851937790883648493
  };
  using Scalar = ScalarField<4, ScalarTag>;

  class Element {
   public:
    Element();  // identity

    const GePoint& point() const { return p_; }

    friend bool operator==(const Element& a, const Element& b);
    friend bool operator!=(const Element& a, const Element& b) { return !(a == b); }

   private:
    friend class Ed25519Group;
    explicit Element(const GePoint& p) : p_(p) {}
    GePoint p_;
  };

  // Acceleration kernel (see src/group/group.h): accumulators stay in
  // extended coordinates with a dedicated 4M+4S doubling, and table entries
  // are batch-normalized to Niels form for 7M mixed additions.
  struct Accel {
    using P = GePoint;
    using A = GeNiels;
    static constexpr bool kCheapNegate = true;

    static P Identity();
    static P Lift(const Element& e) { return e.p_; }
    static Element Lower(const P& p) { return Element(p); }
    static A ToA(const P& p);  // one field inversion
    // Batch conversion: one inversion for the whole set (Montgomery's trick).
    static void Normalize(const std::vector<P>& pts, std::vector<A>* out);
    static P Add(const P& a, const P& b);   // unified add, complete
    static P AddA(const P& a, const A& b);  // Niels mixed add
    static P Dbl(const P& a);               // dbl-2008-hwcd
    static A NegA(const A& a) {
      return GeNiels{a.ymx, a.ypx, Fe25519::Neg(a.t2d)};
    }
  };

  static std::string Name() { return "ed25519"; }

  static Element Identity();
  static Element Generator();

  static Element Mul(const Element& a, const Element& b);  // point addition
  static Element Exp(const Element& base, const Scalar& e);  // scalar multiplication
  static Element Inverse(const Element& a);  // point negation
  static Element ExpG(const Scalar& e) { return Exp(Generator(), e); }

  // Compressed encoding: canonical y with the sign bit of x in bit 255.
  static Bytes Encode(const Element& e);
  // Encode many elements with a single shared field inversion.
  static std::vector<Bytes> EncodeBatch(const std::vector<Element>& es);
  // Strict decode: canonical encoding, on curve, and in the order-l subgroup.
  static std::optional<Element> Decode(BytesView bytes);
  // Decode of in[0..n) in lockstep, eight at a time: ok[i] says whether
  // in[i] decodes, and if so *out[i] is its element (else *out[i] is left
  // as it was). Allocates nothing. Decode is the same steps on one lane.
  static void DecodeBatch(const BytesView* in, size_t n, Element* const* out, bool* ok);

  // Order divides l, by three point halvings (see the file comment).
  static bool InSubgroup(const Element& e);

  // Try-and-increment onto the curve followed by cofactor clearing.
  static Element HashToGroup(BytesView domain, BytesView msg);

  // Curve constant d = -121665/121666 and 2d (derived, not hard-coded).
  static const Fe25519& D();
  static const Fe25519& TwoD();

 private:
  static GePoint ScalarMult(const GePoint& p, const BigInt<4>& e);
  static std::optional<GePoint> Decompress(BytesView bytes);
};

// Unified addition (add-2008-hwcd with a = -1); complete on this curve, so it
// is safe for a == b and either operand the identity.
inline GePoint Ed25519Group::Accel::Add(const GePoint& p, const GePoint& q) {
  Fe25519 a = Fe25519::Mul(p.x, q.x);
  Fe25519 b = Fe25519::Mul(p.y, q.y);
  Fe25519 c = Fe25519::Mul(Fe25519::Mul(p.t, D()), q.t);
  Fe25519 d2 = Fe25519::Mul(p.z, q.z);
  Fe25519 e = Fe25519::Sub(
      Fe25519::Sub(Fe25519::Mul(Fe25519::Add(p.x, p.y), Fe25519::Add(q.x, q.y)), a), b);
  Fe25519 f = Fe25519::Sub(d2, c);
  Fe25519 g = Fe25519::Add(d2, c);
  Fe25519 h = Fe25519::Add(b, a);  // B - aA with a = -1
  GePoint r;
  r.x = Fe25519::Mul(e, f);
  r.y = Fe25519::Mul(g, h);
  r.t = Fe25519::Mul(e, h);
  r.z = Fe25519::Mul(f, g);
  return r;
}

// Mixed addition against a Niels-form point (add-2008-hwcd-3, a = -1): 7M.
inline GePoint Ed25519Group::Accel::AddA(const GePoint& p, const GeNiels& q) {
  Fe25519 a = Fe25519::Mul(Fe25519::Add(p.y, p.x), q.ypx);
  Fe25519 b = Fe25519::Mul(Fe25519::Sub(p.y, p.x), q.ymx);
  Fe25519 c = Fe25519::Mul(p.t, q.t2d);
  Fe25519 d2 = Fe25519::Add(p.z, p.z);
  Fe25519 e = Fe25519::Sub(a, b);
  Fe25519 f = Fe25519::Sub(d2, c);
  Fe25519 g = Fe25519::Add(d2, c);
  Fe25519 h = Fe25519::Add(a, b);
  GePoint r;
  r.x = Fe25519::Mul(e, f);
  r.y = Fe25519::Mul(g, h);
  r.z = Fe25519::Mul(f, g);
  r.t = Fe25519::Mul(e, h);
  return r;
}

// Doubling (dbl-2008-hwcd with a = -1, both factors of each product negated
// so no field negations are needed): 4M + 4S. Does not read p.t.
inline GePoint Ed25519Group::Accel::Dbl(const GePoint& p) {
  Fe25519 a = Fe25519::Square(p.x);
  Fe25519 b = Fe25519::Square(p.y);
  Fe25519 zz = Fe25519::Square(p.z);
  Fe25519 c = Fe25519::Add(zz, zz);
  Fe25519 h = Fe25519::Add(a, b);
  Fe25519 e = Fe25519::Sub(h, Fe25519::Square(Fe25519::Add(p.x, p.y)));  // -2xy
  Fe25519 g = Fe25519::Sub(a, b);
  Fe25519 f = Fe25519::Add(g, c);
  GePoint r;
  r.x = Fe25519::Mul(e, f);
  r.y = Fe25519::Mul(g, h);
  r.z = Fe25519::Mul(f, g);
  r.t = Fe25519::Mul(e, h);
  return r;
}

}  // namespace vdp

#endif  // SRC_GROUP_ED25519_H_
