// Test helper: shift an ed25519 subgroup element by a point of order 8, the
// cheapest way to build an on-curve encoding that the strict decoder must
// reject. Built only from public APIs -- Fe25519 arithmetic and the Accel
// kernel, whose Lower() wraps any curve point -- so tests can forge
// off-subgroup inputs without a back door in the group itself.
#ifndef TESTS_GROUP_ED25519_TORSION_UTIL_H_
#define TESTS_GROUP_ED25519_TORSION_UTIL_H_

#include "src/group/ed25519.h"

namespace vdp {
namespace testing_util {

// A fixed point of order exactly 8: [l]P for the first curve point P with
// small y whose [l]P has order 8 (the torsion component of P).
inline const GePoint& Order8Point() {
  using A = Ed25519Group::Accel;
  static const GePoint t8 = [] {
    for (uint64_t y_small = 2;; ++y_small) {
      Fe25519 y = Fe25519::FromU64(y_small);
      Fe25519 yy = Fe25519::Square(y);
      auto x = Fe25519::SqrtRatio(Fe25519::Sub(yy, Fe25519::One()),
                                  Fe25519::Add(Fe25519::Mul(Ed25519Group::D(), yy),
                                               Fe25519::One()));
      if (!x.has_value()) {
        continue;
      }
      GePoint p{*x, y, Fe25519::One(), Fe25519::Mul(*x, y)};
      const BigInt<4>& l = Ed25519Group::ScalarTag::Order();
      GePoint t = A::Identity();
      for (size_t i = l.BitLength(); i-- > 0;) {
        t = A::Dbl(t);
        if (l.Bit(i)) {
          t = A::Add(t, p);
        }
      }
      GePoint t4 = A::Dbl(A::Dbl(t));
      if (!(A::Lower(t4) == Ed25519Group::Identity())) {
        return t;  // [4]t != O: order 8
      }
    }
  }();
  return t8;
}

// The canonical encoding of e + T8: on the curve, outside the subgroup.
inline Bytes EncodeShiftedByOrder8(const Ed25519Group::Element& e) {
  using A = Ed25519Group::Accel;
  return Ed25519Group::Encode(A::Lower(A::Add(A::Lift(e), Order8Point())));
}

}  // namespace testing_util
}  // namespace vdp

#endif  // TESTS_GROUP_ED25519_TORSION_UTIL_H_
