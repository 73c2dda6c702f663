// Batch verification of Sigma-OR bit proofs via random linear combination.
//
// Each OR proof demands (or_proof.h):
//   (1) e0 + e1 == e            (e recomputed from the Fiat-Shamir transcript)
//   (2) h^{z0} == a0 * c^{e0}
//   (3) h^{z1} == a1 * (c/g)^{e1}
// Check (1) is scalar arithmetic and stays per-proof. Checks (2) and (3) are
// the expensive ones: two variable-base exponentiations per proof. Raising
// proof i's equations to random 128-bit combiners alpha_i, beta_i and
// multiplying everything out gives a single equation
//   h^{sum(alpha z0 + beta z1)} * g^{sum(beta e1)}
//     == prod_i a0^{alpha} * a1^{beta} * c^{alpha e0 + beta e1},
// whose right side is one 3N-term MSM and whose left side is two fixed-base
// exponentiations. One invalid proof escapes with probability 2^-128;
// completeness is exact, so an all-valid batch always accepts.
#ifndef SRC_BATCH_BATCH_OR_PROOF_H_
#define SRC_BATCH_BATCH_OR_PROOF_H_

#include <optional>
#include <string>
#include <vector>

#include "src/batch/combiner.h"
#include "src/batch/msm.h"
#include "src/sigma/or_proof.h"

namespace vdp {

// One OR verification job, mirroring the arguments of OrVerify.
template <PrimeOrderGroup G>
struct OrInstance {
  typename G::Element c;
  OrProof<G> proof;
  std::string context;
};

namespace internal {

// Check (1) for every instance, then the combiner generator bound to the
// whole batch; nullopt when any split e0 + e1 == e fails. Every (c, a0, a1)
// is encoded once, in one batch (one shared field inversion on curve
// groups): the challenges and the combiner transcript both read these
// bytes, and they are freed on return, before the caller's MSM.
template <PrimeOrderGroup G>
std::optional<SecureRng> CheckOrSplits(const Pedersen<G>& ped,
                                       const std::vector<OrInstance<G>>& instances,
                                       ThreadPool* pool) {
  const size_t n = instances.size();
  std::vector<typename G::Element> es;
  es.reserve(3 * n);
  for (const OrInstance<G>& inst : instances) {
    es.push_back(inst.c);
    es.push_back(inst.proof.a0);
    es.push_back(inst.proof.a1);
  }
  const std::vector<Bytes> enc = EncodeAll<G>(es);

  std::vector<uint8_t> split_ok(n, 0);
  ForEachIndex(pool, n, [&](size_t i) {
    const OrProof<G>& p = instances[i].proof;
    const auto e = OrChallenge(ped, enc[3 * i], enc[3 * i + 1], enc[3 * i + 2],
                               instances[i].context);
    split_ok[i] = p.e0 + p.e1 == e ? 1 : 0;
  });
  for (uint8_t ok : split_ok) {
    if (ok == 0) {
      return std::nullopt;
    }
  }

  CombinerBinder binder("vdp/batch-or", n);
  for (size_t i = 0; i < n; ++i) {
    binder.Add(ToBytes(instances[i].context));
    binder.Add(enc[3 * i]);
    binder.Add(instances[i].proof.Serialize(enc[3 * i + 1], enc[3 * i + 2]));
  }
  return binder.Fork();
}

}  // namespace internal

// Batched equivalent of calling OrVerify on every instance. Must not be
// invoked from inside a ThreadPool task (the MSM shards onto the pool).
template <PrimeOrderGroup G>
bool BatchOrVerify(const Pedersen<G>& ped, const std::vector<OrInstance<G>>& instances,
                   ThreadPool* pool = nullptr) {
  using S = typename G::Scalar;
  const size_t n = instances.size();
  if (n == 0) {
    return true;
  }

  std::optional<SecureRng> rng = internal::CheckOrSplits(ped, instances, pool);
  if (!rng.has_value()) {
    return false;
  }

  S sum_h = S::Zero();  // exponent of h on the left side
  S sum_g = S::Zero();  // exponent of g on the left side
  std::vector<typename G::Element> bases;
  std::vector<S> scalars;
  bases.reserve(3 * n);
  scalars.reserve(3 * n);
  for (size_t i = 0; i < n; ++i) {
    const OrProof<G>& p = instances[i].proof;
    S alpha = SampleCombiner<S>(*rng);
    S beta = SampleCombiner<S>(*rng);
    sum_h += alpha * p.z0 + beta * p.z1;
    sum_g += beta * p.e1;
    bases.push_back(p.a0);
    scalars.push_back(alpha);
    bases.push_back(p.a1);
    scalars.push_back(beta);
    bases.push_back(instances[i].c);
    scalars.push_back(alpha * p.e0 + beta * p.e1);
  }
  // Left side: two fixed-base terms, merged through the shared comb tables.
  auto lhs = MsmWithFixedTerms<G>(
      {{&ped.h_table(), sum_h}, {&ped.g_table(), sum_g}}, {}, {});
  return lhs == Msm<G>(bases, scalars, pool);
}

}  // namespace vdp

#endif  // SRC_BATCH_BATCH_OR_PROOF_H_
