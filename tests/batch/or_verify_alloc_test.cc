// Heap allocations per proof in BatchOrVerify, counted by a replacement
// operator new. The batch hashes every proof's scalars through fixed-size
// encodings (ScalarField::EncodeArray), so what is left per proof is the
// three element encodings of the one batch EncodeAll; the rest is per batch.
// A per-scalar heap buffer coming back would add four per proof.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/batch/batch_openings.h"
#include "src/batch/batch_or_proof.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// GCC pairs inlined new-expressions with these and flags the free() as a
// mismatch, but this file replaces both sides of the pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace vdp {
namespace {

using G = Ed25519Group;
using S = G::Scalar;

constexpr size_t kProofs = 512;

template <typename Fn>
size_t AllocationsDuring(Fn&& fn) {
  const size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(OrVerifyAllocTest, ThreeAllocationsPerProof) {
  Pedersen<G> ped;
  SecureRng rng("or-verify-alloc");
  std::vector<OrInstance<G>> instances;
  for (size_t i = 0; i < kProofs; ++i) {
    const int bit = static_cast<int>(i % 2);
    const S r = S::Random(rng);
    const auto c = ped.Commit(S::FromU64(static_cast<uint64_t>(bit)), r);
    const std::string context = "alloc/" + std::to_string(i);
    instances.push_back({c, OrProve(ped, c, bit, r, rng, context), context});
  }
  bool accepted = false;
  const size_t allocations =
      AllocationsDuring([&] { accepted = BatchOrVerify(ped, instances, /*pool=*/nullptr); });
  EXPECT_TRUE(accepted);
  const double per_proof = static_cast<double>(allocations) / kProofs;
  EXPECT_LT(per_proof, 3.1) << allocations << " allocations for " << kProofs << " proofs";
  EXPECT_GE(per_proof, 3.0) << "the three element encodings per proof are expected";
}

TEST(OrVerifyAllocTest, OpeningsBinderAllocatesNoScalarBuffers) {
  Pedersen<G> ped;
  SecureRng rng("openings-alloc");
  std::vector<G::Element> cs;
  std::vector<S> ms, rs;
  for (size_t i = 0; i < kProofs; ++i) {
    ms.push_back(S::Random(rng));
    rs.push_back(S::Random(rng));
    cs.push_back(ped.Commit(ms.back(), rs.back()));
  }
  bool valid = false;
  const size_t allocations = AllocationsDuring([&] {
    valid = BatchOpeningsValid<G>(ped, "alloc-test", kProofs, [&](size_t i) {
      return OpeningRef<G>{cs[i], ms[i], rs[i]};
    });
  });
  EXPECT_TRUE(valid);
  // One encoding per commitment; the scalars add nothing per opening.
  EXPECT_LT(static_cast<double>(allocations) / kProofs, 1.1) << allocations;
}

}  // namespace
}  // namespace vdp
