#include "src/group/ed25519.h"

#include "src/math/batch_inverse.h"

namespace vdp {
namespace {

GePoint IdentityPoint() {
  GePoint p;
  p.x = Fe25519::Zero();
  p.y = Fe25519::One();
  p.z = Fe25519::One();
  p.t = Fe25519::Zero();
  return p;
}

GePoint NegatePoint(const GePoint& p) {
  GePoint r = p;
  r.x = Fe25519::Neg(p.x);
  r.t = Fe25519::Neg(p.t);
  return r;
}

bool PointsEqual(const GePoint& a, const GePoint& b) {
  // x1/z1 == x2/z2  <=>  x1 z2 == x2 z1 (same for y).
  return Fe25519::Mul(a.x, b.z) == Fe25519::Mul(b.x, a.z) &&
         Fe25519::Mul(a.y, b.z) == Fe25519::Mul(b.y, a.z);
}

// Readdable projective point: (y+x, y-x, z, 2dT). Mixed addition against this
// form costs 8M and needs no normalization, so it serves as the per-call
// precomputation of variable-base ScalarMult.
struct GeCached {
  Fe25519 ypx;
  Fe25519 ymx;
  Fe25519 z;
  Fe25519 t2d;
};

GeCached ToCached(const GePoint& p) {
  return GeCached{Fe25519::Add(p.y, p.x), Fe25519::Sub(p.y, p.x), p.z,
                  Fe25519::Mul(p.t, Ed25519Group::TwoD())};
}

// add-2008-hwcd-3 (a = -1) against a cached point: 8M.
GePoint AddCached(const GePoint& p, const GeCached& q) {
  Fe25519 a = Fe25519::Mul(Fe25519::Add(p.y, p.x), q.ypx);
  Fe25519 b = Fe25519::Mul(Fe25519::Sub(p.y, p.x), q.ymx);
  Fe25519 c = Fe25519::Mul(p.t, q.t2d);
  Fe25519 zz = Fe25519::Mul(p.z, q.z);
  Fe25519 d2 = Fe25519::Add(zz, zz);
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

// Subgroup membership by point halving. E(F_p) = Z/8 x Z/l, so P lies in
// the order-l subgroup iff P = 8R for some rational R, i.e. iff P can be
// halved three times without leaving F_p. On the birationally equivalent
// Montgomery curve v^2 = u^3 + A u^2 + u (A = 486662):
//   - a point P with u != 0 lies in 2E iff u^2 + A u + 1 = v^2 / u is a
//     square (q = sqrt of it);
//   - the halves of P have u-coordinates w with w + 1/w = s, s in
//     {2u + 2q, 2u - 2q}; exactly one s has s^2 - 4 square (the product of
//     the two candidates is 16 u^2 (A^2 - 4) and A^2 - 4 is a non-square),
//     and w = (s + sqrt(s^2 - 4)) / 2 is then the u-coordinate of a rational
//     half (w and 1/w name the two halves that differ by (0, 0));
//   - (w + 1)^2 = w (s + 2), so at the last level only chi(s + 2) is needed,
//     and that folds into a single Legendre symbol.
// Every value is a fraction over a shared denominator z, so no inversion is
// needed: 4 exponentiations instead of the ~252 doublings of [l]P. The
// inputs are u = un / z with un, z != 0 (x != 0 has been ruled out).
bool HalvesThreeTimes(Fe25519 un, Fe25519 z) {
  static const Fe25519 kA = Fe25519::FromU64(486662);
  static const Fe25519 kAA4 =  // A^2 - 4, a non-square
      Fe25519::Sub(Fe25519::Square(kA), Fe25519::FromU64(4));
  // sqrt((A^2 - 4) * eps) for eps = sqrt(-1) and -sqrt(-1); both are
  // squares because sqrt(-1) is itself a non-square for this p.
  static const Fe25519 kRootPlus = *Fe25519::Mul(kAA4, Fe25519::SqrtM1()).Sqrt();
  static const Fe25519 kRootMinus =
      *Fe25519::Neg(Fe25519::Mul(kAA4, Fe25519::SqrtM1())).Sqrt();

  // Level 1: P in 2E, then one rational half w = wn / z.
  auto q = Fe25519::Add(Fe25519::Add(Fe25519::Square(un), Fe25519::Square(z)),
                        Fe25519::Mul(kA, Fe25519::Mul(un, z)))
               .Sqrt();
  if (!q.has_value()) {
    return false;
  }
  // Try s = 2(un + q) / z: s^2 - 4 = 4m / z^2 with m = (un + q)^2 - z^2.
  // One exponentiation beta = m^((p+3)/8) either roots m (beta^2 = +-m) or,
  // when m is a non-square (beta^2 = eps * m, eps = +-sqrt(-1)), roots the
  // other candidate: m' = un^2 z^2 (A^2 - 4) / m, so
  // sqrt(m') = un z sqrt((A^2 - 4) eps) / beta, and the 1/beta moves into
  // the shared denominator.
  Fe25519 s = Fe25519::Add(un, *q);
  Fe25519 m = Fe25519::Sub(Fe25519::Square(s), Fe25519::Square(z));
  Fe25519 beta = Fe25519::Mul(m, m.PowP58());
  Fe25519 beta2 = Fe25519::Square(beta);
  Fe25519 wn;
  if (beta2 == m) {
    wn = Fe25519::Add(s, beta);
  } else if (beta2 == Fe25519::Neg(m)) {
    wn = Fe25519::Add(s, Fe25519::Mul(beta, Fe25519::SqrtM1()));
  } else {
    // m != 0, so m^((p-1)/4) is a fourth root of unity: here +-sqrt(-1).
    const Fe25519& root = beta2 == Fe25519::Mul(Fe25519::SqrtM1(), m) ? kRootPlus : kRootMinus;
    Fe25519 s_other = Fe25519::Sub(un, *q);
    wn = Fe25519::Add(Fe25519::Mul(beta, s_other), Fe25519::Mul(Fe25519::Mul(un, z), root));
    z = Fe25519::Mul(beta, z);
  }
  // The roots of w^2 - s w + 1 multiply to 1, so w = 0 cannot come out of a
  // curve point; it is still rejected, as it would make level 2 vacuous.
  if (wn.IsZero()) {
    return false;
  }

  // Level 2: the half is in 2E.
  auto q2 = Fe25519::Add(Fe25519::Add(Fe25519::Square(wn), Fe25519::Square(z)),
                         Fe25519::Mul(kA, Fe25519::Mul(wn, z)))
                .Sqrt();
  if (!q2.has_value()) {
    return false;
  }

  // Level 3: the rational quarter w' is a square, i.e. chi(s' + 2) = 1 for
  // the s' whose s'^2 - 4 is a square. Take s' = 2 s1 / z, s1 = wn + q2. If
  // s' is that root, the test is chi(s'^2 - 4) = chi(s' + 2) = 1; if the
  // other root s'' is, then chi(s'^2 - 4) = -1 and
  // chi(s'' + 2) = chi(w) chi(A - 2) chi(s' + 2) = -chi(s' + 2), as w is a
  // square (level 2) and A - 2 is not. Both cases read
  // chi(s'^2 - 4) = chi(s' + 2), i.e. chi(s' - 2) = 1, i.e.
  // chi(2 (s1 - z) z) = 1: one Legendre symbol.
  Fe25519 d = Fe25519::Sub(Fe25519::Add(wn, *q2), z);
  return Fe25519::Mul(Fe25519::Add(d, d), z).IsSquare();
}

}  // namespace

const BigInt<4>& Ed25519Group::ScalarTag::Order() {
  static const BigInt<4> l = *BigInt<4>::FromHex(
      "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed");
  return l;
}

const Fe25519& Ed25519Group::D() {
  static const Fe25519 d = [] {
    // d = -121665 / 121666 mod p (the defining constant of edwards25519).
    Fe25519 num = Fe25519::Neg(Fe25519::FromU64(121665));
    Fe25519 den = Fe25519::FromU64(121666);
    return Fe25519::Mul(num, den.Invert());
  }();
  return d;
}

const Fe25519& Ed25519Group::TwoD() {
  static const Fe25519 two_d = Fe25519::Add(D(), D());
  return two_d;
}

Ed25519Group::Element::Element() : p_(IdentityPoint()) {}

bool operator==(const Ed25519Group::Element& a, const Ed25519Group::Element& b) {
  return PointsEqual(a.p_, b.p_);
}

Ed25519Group::Element Ed25519Group::Identity() { return Element(); }

GePoint Ed25519Group::Accel::Identity() { return IdentityPoint(); }

GeNiels Ed25519Group::Accel::ToA(const GePoint& p) {
  Fe25519 zinv = p.z.Invert();
  Fe25519 x = Fe25519::Mul(p.x, zinv);
  Fe25519 y = Fe25519::Mul(p.y, zinv);
  return GeNiels{Fe25519::Add(y, x), Fe25519::Sub(y, x),
                 Fe25519::Mul(TwoD(), Fe25519::Mul(x, y))};
}

void Ed25519Group::Accel::Normalize(const std::vector<GePoint>& pts,
                                    std::vector<GeNiels>* out) {
  std::vector<Fe25519> zs(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    zs[i] = pts[i].z;
  }
  BatchInverse(Fe25519Field{}, &zs);  // z is never 0 for a valid point
  out->resize(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    Fe25519 x = Fe25519::Mul(pts[i].x, zs[i]);
    Fe25519 y = Fe25519::Mul(pts[i].y, zs[i]);
    (*out)[i] = GeNiels{Fe25519::Add(y, x), Fe25519::Sub(y, x),
                        Fe25519::Mul(TwoD(), Fe25519::Mul(x, y))};
  }
}

Ed25519Group::Element Ed25519Group::Generator() {
  static const GePoint base = [] {
    // The standard base point has y = 4/5 and "even" (non-negative) x.
    Fe25519 y = Fe25519::Mul(Fe25519::FromU64(4), Fe25519::FromU64(5).Invert());
    Fe25519 yy = Fe25519::Square(y);
    Fe25519 u = Fe25519::Sub(yy, Fe25519::One());
    Fe25519 v = Fe25519::Add(Fe25519::Mul(D(), yy), Fe25519::One());
    Fe25519 x = *Fe25519::SqrtRatio(u, v);
    if (x.IsNegative()) {
      x = Fe25519::Neg(x);
    }
    GePoint p;
    p.x = x;
    p.y = y;
    p.z = Fe25519::One();
    p.t = Fe25519::Mul(x, y);
    return p;
  }();
  return Element(base);
}

GePoint Ed25519Group::ScalarMult(const GePoint& p, const BigInt<4>& e) {
  // 4-bit window over a cached-form table, variable time (acceptable:
  // exponents in this library are either public or blinded at the protocol
  // level). Doublings use the dedicated 4M+4S formula; window additions the
  // 8M cached add.
  GeCached table[16];  // table[i] = i * p; index 0 unused
  GePoint multiple = p;
  table[1] = ToCached(p);
  for (int i = 2; i < 16; ++i) {
    multiple = Accel::Add(multiple, p);
    table[i] = ToCached(multiple);
  }
  GePoint acc = IdentityPoint();
  size_t bits = e.BitLength();
  size_t windows = (bits + 3) / 4;
  for (size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) {
      acc = Accel::Dbl(acc);
    }
    uint32_t nib = 0;
    for (int b = 3; b >= 0; --b) {
      size_t bit = w * 4 + static_cast<size_t>(b);
      nib = (nib << 1) | ((bit < bits && e.Bit(bit)) ? 1u : 0u);
    }
    if (nib != 0) {
      acc = AddCached(acc, table[nib]);
    }
  }
  return acc;
}

Ed25519Group::Element Ed25519Group::Mul(const Element& a, const Element& b) {
  return Element(Accel::Add(a.p_, b.p_));
}

Ed25519Group::Element Ed25519Group::Exp(const Element& base, const Scalar& e) {
  return Element(ScalarMult(base.p_, e.value()));
}

Ed25519Group::Element Ed25519Group::Inverse(const Element& a) {
  return Element(NegatePoint(a.p_));
}

Bytes Ed25519Group::Encode(const Element& e) {
  Fe25519 x = e.p_.x;
  Fe25519 y = e.p_.y;
  if (!(e.p_.z == Fe25519::One())) {  // decoded points carry z = 1
    Fe25519 zinv = e.p_.z.Invert();
    x = Fe25519::Mul(x, zinv);
    y = Fe25519::Mul(y, zinv);
  }
  auto bytes = y.ToBytes();
  if (x.IsNegative()) {
    bytes[31] |= 0x80;
  }
  return Bytes(bytes.begin(), bytes.end());
}

std::vector<Bytes> Ed25519Group::EncodeBatch(const std::vector<Element>& es) {
  std::vector<Fe25519> zs(es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    zs[i] = es[i].p_.z;
  }
  BatchInverse(Fe25519Field{}, &zs);
  std::vector<Bytes> out(es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    Fe25519 x = Fe25519::Mul(es[i].p_.x, zs[i]);
    Fe25519 y = Fe25519::Mul(es[i].p_.y, zs[i]);
    auto bytes = y.ToBytes();
    if (x.IsNegative()) {
      bytes[31] |= 0x80;
    }
    out[i] = Bytes(bytes.begin(), bytes.end());
  }
  return out;
}

std::optional<GePoint> Ed25519Group::Decompress(BytesView bytes) {
  if (bytes.size() != kElementSize) {
    return std::nullopt;
  }
  Bytes y_bytes(bytes.begin(), bytes.end());
  bool sign = (y_bytes[31] & 0x80) != 0;
  y_bytes[31] &= 0x7f;
  auto y = Fe25519::FromBytes(y_bytes);
  if (!y.has_value()) {
    return std::nullopt;
  }
  // x^2 = (y^2 - 1) / (d y^2 + 1); SqrtRatio finds x with one exponentiation
  // and its success is exactly the on-curve condition.
  Fe25519 yy = Fe25519::Square(*y);
  Fe25519 u = Fe25519::Sub(yy, Fe25519::One());
  Fe25519 v = Fe25519::Add(Fe25519::Mul(D(), yy), Fe25519::One());
  auto x = Fe25519::SqrtRatio(u, v);
  if (!x.has_value()) {
    return std::nullopt;
  }
  if (x->IsZero() && sign) {
    return std::nullopt;  // -0 is not a valid encoding
  }
  if (x->IsNegative() != sign) {
    *x = Fe25519::Neg(*x);
  }
  GePoint p;
  p.x = *x;
  p.y = *y;
  p.z = Fe25519::One();
  p.t = Fe25519::Mul(*x, *y);
  return p;
}

bool Ed25519Group::InSubgroup(const Element& e) {
  const GePoint& p = e.p_;
  if (p.x.IsZero()) {
    return p.y == p.z;  // (0, 1) is the identity; (0, -1) has order 2
  }
  // Montgomery u = (1 + y) / (1 - y), kept as the fraction (z + y) / (z - y).
  return HalvesThreeTimes(Fe25519::Add(p.z, p.y), Fe25519::Sub(p.z, p.y));
}

std::optional<Ed25519Group::Element> Ed25519Group::Decode(BytesView bytes) {
  auto p = Decompress(bytes);
  if (!p.has_value()) {
    return std::nullopt;
  }
  Element e(*p);
  if (!InSubgroup(e)) {
    return std::nullopt;
  }
  return e;
}

Ed25519Group::Element Ed25519Group::HashToGroup(BytesView domain, BytesView msg) {
  for (uint64_t counter = 0;; ++counter) {
    Sha256 h;
    h.Update(StrView("vdp/ed25519-hash-to-group"));
    uint8_t dlen = static_cast<uint8_t>(domain.size());
    h.Update(BytesView(&dlen, 1));
    h.Update(domain);
    h.Update(msg);
    uint8_t ctr[8];
    for (int i = 0; i < 8; ++i) {
      ctr[i] = static_cast<uint8_t>(counter >> (8 * i));
    }
    h.Update(BytesView(ctr, 8));
    Sha256::Digest digest = h.Finalize();
    Bytes candidate(digest.begin(), digest.end());
    candidate[31] &= 0x7f;  // interpret as a y coordinate with positive x
    auto p = Decompress(candidate);
    if (!p.has_value()) {
      continue;
    }
    // Clear the cofactor: 8P lies in the prime-order subgroup.
    GePoint p2 = Accel::Dbl(*p);
    GePoint p4 = Accel::Dbl(p2);
    GePoint p8 = Accel::Dbl(p4);
    if (PointsEqual(p8, IdentityPoint())) {
      continue;  // hashed into the torsion subgroup; try the next counter
    }
    return Element(p8);
  }
}

}  // namespace vdp
