// The two PowP58Batch kernels against the scalar chain Fe25519::PowP58: the
// portable four-chain interleave always, the AVX-512 IFMA kernel where the
// CPU has it (skipped, naming the missing feature, elsewhere). Inputs cover
// the edges 0, 1 and p - 1, limbs at the loose bound Fe25519::kLooseLimb --
// IFMA reads only the low 52 bits of a limb, so that bound is what keeps a
// loose input whole -- and every batch length from 0 to 17, so the
// vector's padded tail and the dispatcher's portable tail both run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/group/ed25519_field.h"

namespace vdp {
namespace {

using Kernel = void (*)(const Fe25519*, Fe25519*, size_t);

constexpr uint64_t kTopLimb = Fe25519::kLooseLimb - 1;

// Edge values, loose limbs and random elements; at least 64 of them.
std::vector<Fe25519> Inputs() {
  BigInt<4> p_minus_1;
  BigInt<4>::SubInto(p_minus_1, Fe25519::P(), BigInt<4>::One());
  std::vector<Fe25519> in = {Fe25519::Zero(), Fe25519::One(), Fe25519::FromBigInt(p_minus_1),
                             Fe25519::FromLimbs({kTopLimb, kTopLimb, kTopLimb, kTopLimb,
                                                 kTopLimb})};
  // One limb at the bound, the others at the bound or zero.
  for (size_t k = 0; k < 5; ++k) {
    std::array<uint64_t, 5> limbs = {0, 0, 0, 0, 0};
    limbs[k] = kTopLimb;
    in.push_back(Fe25519::FromLimbs(limbs));
    limbs = {kTopLimb, kTopLimb, kTopLimb, kTopLimb, kTopLimb};
    limbs[k] = 0;
    in.push_back(Fe25519::FromLimbs(limbs));
  }
  SecureRng rng("powp58-batch-inputs");
  while (in.size() < 64) {
    std::array<uint64_t, 5> limbs;
    for (uint64_t& l : limbs) {
      l = rng.UniformBelow(Fe25519::kLooseLimb);
    }
    in.push_back(Fe25519::FromLimbs(limbs));
  }
  return in;
}

// Every prefix length up to 17 and the whole input, out of place and in
// place; each output must equal the scalar chain's and keep its limbs under
// the loose bound, so that it can feed the next chain.
void ExpectMatchesScalar(Kernel kernel) {
  const std::vector<Fe25519> in = Inputs();
  std::vector<Fe25519> want;
  for (const Fe25519& a : in) {
    want.push_back(a.PowP58());
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 17; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(in.size());
  for (size_t n : lengths) {
    for (bool in_place : {false, true}) {
      std::vector<Fe25519> out(in.begin(), in.begin() + static_cast<long>(n));
      kernel(in_place ? out.data() : in.data(), out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i].ToBytes(), want[i].ToBytes())
            << "n=" << n << " i=" << i << (in_place ? " in place" : "");
        for (uint64_t limb : out[i].Limbs()) {
          EXPECT_LT(limb, Fe25519::kLooseLimb) << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(PowP58BatchTest, ScalarChainMatchesSquareAndMultiply) {
  // The oracle itself: 2^252 - 3 by generic square-and-multiply.
  BigInt<4> e;
  e.SetBit(252);
  BigInt<4>::SubInto(e, e, BigInt<4>::FromU64(3));
  for (const Fe25519& a : Inputs()) {
    EXPECT_EQ(a.PowP58().ToBytes(), Fe25519::Pow(a, e).ToBytes());
  }
}

TEST(PowP58BatchTest, PortableKernelMatchesScalarChain) {
  ExpectMatchesScalar(fe25519_internal::PowP58Portable);
}

TEST(PowP58BatchTest, IfmaKernelMatchesScalarChain) {
  if (const char* missing = fe25519_internal::MissingIfmaFeature()) {
    GTEST_SKIP() << "PowP58Ifma not run: this CPU or OS lacks " << missing;
  }
#if defined(__x86_64__)
  ExpectMatchesScalar(fe25519_internal::PowP58Ifma);
#endif
}

TEST(PowP58BatchTest, DispatcherMatchesScalarChain) {
  ExpectMatchesScalar(Fe25519::PowP58Batch);
  const std::string name = fe25519_internal::BatchKernelName();
  EXPECT_EQ(name, fe25519_internal::HasIfma() ? "ifma8" : "portable4");
}

}  // namespace
}  // namespace vdp
