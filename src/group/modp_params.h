// Hard-coded Z_p* group parameters: a prime p = q * cofactor + 1 and the
// order-q subgroup of Z_p*, generated by g.
//
// Two shapes are compiled in:
//   - safe primes p = 2q + 1 (cofactor 2): the quadratic residues, generated
//     by g = 4, with (p-1)/2-sized exponents;
//   - DSA/Schnorr-style primes with a short 256-bit q and a large cofactor:
//     the configuration production finite-field deployments use, and the one
//     that makes Z_p* exponentiation cheaper than portable elliptic-curve
//     scalar multiplication (the relation behind the paper's 35us-vs-328us
//     comparison).
//
// The primes were produced by tools/gen_params and are revalidated by
// tests/group/modp_group_test.cc and schnorr_group_test.cc with independent
// Miller-Rabin rounds. ModP64 and ModP256 offer no real security.
#ifndef SRC_GROUP_MODP_PARAMS_H_
#define SRC_GROUP_MODP_PARAMS_H_

#include <string>

#include "src/math/bigint.h"

namespace vdp {

// L limbs of modulus, QL limbs of subgroup order.
template <size_t L, size_t QL>
struct ModPParams {
  std::string name;         // G::Name(): "modp-<bits>" or "schnorr-<bits>-q256"
  std::string hash_domain;  // leading tag of G::HashToGroup
  BigInt<L> p;              // prime modulus
  BigInt<QL> q;             // prime subgroup order
  BigInt<L> cofactor;       // (p - 1) / q
  BigInt<L> g;              // generator of the order-q subgroup
};

const ModPParams<1, 1>& ModP64Params();
const ModPParams<4, 4>& ModP256Params();
const ModPParams<8, 8>& ModP512Params();
const ModPParams<16, 16>& ModP1024Params();
const ModPParams<32, 32>& ModP2048Params();
const ModPParams<8, 4>& Schnorr512Params();
const ModPParams<32, 4>& Schnorr2048Params();

}  // namespace vdp

#endif  // SRC_GROUP_MODP_PARAMS_H_
