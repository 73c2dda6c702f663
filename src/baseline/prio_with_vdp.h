// Retrofitting verifiable DP noise onto a PRIO/Poplar-style pipeline
// (paper contribution 3: "Pi_Bin ... can be combined with existing
// (non-verifiable) DP-MPC protocols, such as PRIO and Poplar, to enforce
// verifiability").
//
// A PRIO deployment keeps its cheap sketch-based client validation and its
// plain additive aggregation; each server then runs the *coin pipeline* of
// Pi_Bin on top: it commits to its claimed aggregate share X_k, commits to
// nb private bits with Sigma-OR proofs, derives public bits with Morra, and
// publishes (y_k, z_k) = (X_k + sum v_hat, R_k +/- sum s). The verifier
// checks Com(X_k, R_k) * prod c-hat' == Com(y_k, z_k).
//
// What this buys: the DP randomness is certified faithful *relative to the
// committed aggregate* -- a server can no longer bias the statistic and
// blame the noise. What it deliberately does NOT buy (and the tests pin
// down): binding X_k to the real client inputs. Without per-client
// commitments, a server can commit to a falsified aggregate. Full Pi_Bin
// closes that with the Line 2-3 client machinery; this retrofit is the
// intermediate point in the design space.
#ifndef SRC_BASELINE_PRIO_WITH_VDP_H_
#define SRC_BASELINE_PRIO_WITH_VDP_H_

#include <vector>

#include "src/commit/pedersen.h"
#include "src/core/coins.h"

namespace vdp {

template <PrimeOrderGroup G>
struct RetrofitProof {
  typename G::Element aggregate_commitment;           // Com(X_k, R_k)
  std::vector<typename G::Element> coin_commitments;  // [nb]
  std::vector<OrProof<G>> coin_proofs;                // [nb]
  std::vector<bool> public_bits;                      // [nb] (from Morra)
  typename G::Scalar y;                               // X_k + noise
  typename G::Scalar z;                               // opening of the product
};

// Server side: given the (plaintext) aggregate share X_k from the PRIO
// pipeline, produce the noisy output plus the verifiability evidence.
// `public_bits` must come from a joint Morra run with the verifier and hold
// one bit per coin.
template <PrimeOrderGroup G>
RetrofitProof<G> RetrofitNoise(const typename G::Scalar& aggregate_share, size_t num_coins,
                               const std::vector<bool>& public_bits, const Pedersen<G>& ped,
                               SecureRng& rng, const std::string& context,
                               ThreadPool* pool = nullptr) {
  using S = typename G::Scalar;
  RetrofitProof<G> proof;
  proof.public_bits = public_bits;

  S big_r = S::Random(rng);
  proof.aggregate_commitment = ped.Commit(aggregate_share, big_r);

  CoinBatch<G> coins = CommitCoinBatch(ped, num_coins, rng, context, pool);
  proof.y = aggregate_share;
  proof.z = big_r;
  FoldCoins(coins.bits, coins.randomness, public_bits, &proof.y, &proof.z);
  proof.coin_commitments = std::move(coins.commitments);
  proof.coin_proofs = std::move(coins.proofs);
  return proof;
}

// Verifier side: checks that the published y is the committed aggregate plus
// faithfully generated Binomial noise -- Pi_Bin's Lines 5-6 and Eq. 10 with
// the aggregate commitment in place of the client product.
template <PrimeOrderGroup G>
bool RetrofitVerify(const RetrofitProof<G>& proof, const Pedersen<G>& ped,
                    const std::string& context, ThreadPool* pool = nullptr) {
  std::vector<OrInstance<G>> instances;
  return AddCoinInstances(proof.coin_commitments, proof.coin_proofs, context, &instances) &&
         BatchOrVerify(ped, instances, pool) &&
         CheckFinalBin(ped, proof.aggregate_commitment, proof.coin_commitments,
                       proof.public_bits, proof.y, proof.z);
}

}  // namespace vdp

#endif  // SRC_BASELINE_PRIO_WITH_VDP_H_
