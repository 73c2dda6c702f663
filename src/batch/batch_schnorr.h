// Batch verification of Schnorr proofs via random linear combination.
//
// N transcripts demand base_i^{z_i} == a_i * y_i^{e_i}. Instead of 2N
// independent exponentiation chains, raise equation i to a random 128-bit
// combiner gamma_i and multiply them all:
//   prod_i base_i^{gamma_i z_i} == prod_i a_i^{gamma_i} * y_i^{gamma_i e_i}
// -- one N-term MSM against one 2N-term MSM. A single invalid proof survives
// with probability 2^-128 (see combiner.h); completeness is exact, so the
// batch verdict matches the per-proof verdict on every honest batch.
#ifndef SRC_BATCH_BATCH_SCHNORR_H_
#define SRC_BATCH_BATCH_SCHNORR_H_

#include <vector>

#include "src/batch/combiner.h"
#include "src/batch/msm.h"
#include "src/sigma/schnorr.h"

namespace vdp {

// One Schnorr verification job: the statement (base, y), the proof, and the
// caller's transcript in exactly the state it would be handed to
// SchnorrVerify (the challenge is recomputed from a copy).
template <PrimeOrderGroup G>
struct SchnorrInstance {
  typename G::Element base;
  typename G::Element y;
  SchnorrProof<G> proof;
  Transcript transcript{"vdp/schnorr"};
};

// Batched equivalent of calling SchnorrVerify on every instance. Must not be
// invoked from inside a ThreadPool task (the MSM shards onto the pool).
template <PrimeOrderGroup G>
bool BatchSchnorrVerify(const std::vector<SchnorrInstance<G>>& instances,
                        ThreadPool* pool = nullptr) {
  using S = typename G::Scalar;
  const size_t n = instances.size();
  if (n == 0) {
    return true;
  }

  // Recompute every Fiat-Shamir challenge (hashing only; independent jobs).
  std::vector<S> challenges(n);
  auto derive = [&](size_t i) {
    Transcript t = instances[i].transcript;
    challenges[i] =
        SchnorrChallenge<G>(instances[i].base, instances[i].y, instances[i].proof.commit, t);
  };
  ForEachIndex(pool, n, derive);

  // Combiners are bound to the whole batch; statements encode in one batch
  // (one shared field inversion on curve groups instead of 2n).
  std::vector<typename G::Element> stmt(2 * n);
  for (size_t i = 0; i < n; ++i) {
    stmt[2 * i] = instances[i].base;
    stmt[2 * i + 1] = instances[i].y;
  }
  std::vector<Bytes> enc_stmt = EncodeAll<G>(stmt);
  CombinerBinder binder("vdp/batch-schnorr", n);
  for (size_t i = 0; i < n; ++i) {
    binder.Add(enc_stmt[2 * i]);
    binder.Add(enc_stmt[2 * i + 1]);
    binder.Add(instances[i].proof.Serialize());
  }
  SecureRng rng = binder.Fork();

  std::vector<typename G::Element> lhs_bases;
  std::vector<S> lhs_scalars;
  std::vector<typename G::Element> rhs_bases;
  std::vector<S> rhs_scalars;
  lhs_bases.reserve(n);
  lhs_scalars.reserve(n);
  rhs_bases.reserve(2 * n);
  rhs_scalars.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    S gamma = SampleCombiner<S>(rng);
    lhs_bases.push_back(instances[i].base);
    lhs_scalars.push_back(gamma * instances[i].proof.response);
    rhs_bases.push_back(instances[i].proof.commit);
    rhs_scalars.push_back(gamma);
    rhs_bases.push_back(instances[i].y);
    rhs_scalars.push_back(gamma * challenges[i]);
  }
  return Msm<G>(lhs_bases, lhs_scalars, pool) == Msm<G>(rhs_bases, rhs_scalars, pool);
}

}  // namespace vdp

#endif  // SRC_BATCH_BATCH_SCHNORR_H_
