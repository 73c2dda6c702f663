// The private-coin steps of Pi_Bin (Figure 2, Lines 4-6 and 10-13), each
// written once.
//
// The prover (src/core/prover.h) and the public verifier
// (src/core/verifier.h) run them per bin; the PRIO/Poplar retrofit
// (src/baseline/prio_with_vdp.h), the Theorem 4.1 simulator's check
// (src/core/simulator.h) and the Table 1 / Figure 3 benches call the same
// functions, so each of them is checked against, or times, the round's own
// code.
#ifndef SRC_CORE_COINS_H_
#define SRC_CORE_COINS_H_

#include <string>
#include <vector>

#include "src/batch/batch_or_proof.h"
#include "src/commit/pedersen.h"
#include "src/sigma/or_proof.h"

namespace vdp {

// One bin's coins: the private bits v_j and randomness s_j, and the public
// commitments c'_j = Com(v_j, s_j) with their O_OR proofs.
template <PrimeOrderGroup G>
struct CoinBatch {
  std::vector<int> bits;
  std::vector<typename G::Scalar> randomness;
  std::vector<typename G::Element> commitments;
  std::vector<OrProof<G>> proofs;
};

// Lines 4-6: draws nb coins from rng, v_j then s_j for each j, commits them
// on the pool and proves each one a bit under context + "/j". The draws stay
// sequential (the coins are a function of the seed); only the commitments
// and proofs fan out.
template <PrimeOrderGroup G>
CoinBatch<G> CommitCoinBatch(const Pedersen<G>& ped, size_t nb, SecureRng& rng,
                             const std::string& context, ThreadPool* pool = nullptr) {
  using S = typename G::Scalar;
  CoinBatch<G> coins;
  coins.bits.resize(nb);
  coins.randomness.resize(nb);
  coins.commitments.resize(nb);
  for (size_t j = 0; j < nb; ++j) {
    coins.bits[j] = rng.NextBit() ? 1 : 0;
    coins.randomness[j] = S::Random(rng);
  }
  ForEachIndex(pool, nb, [&](size_t j) {
    coins.commitments[j] =
        ped.Commit(S::FromU64(static_cast<uint64_t>(coins.bits[j])), coins.randomness[j]);
  });
  coins.proofs =
      OrProveBatch(ped, coins.commitments, coins.bits, coins.randomness, rng, context, pool);
  return coins;
}

// Lines 10-11: adds one bin's coins to the opening (y, z). Coin j adds
// v_j XOR b_j to y, and s_j to z with a negative sign when b_j = 1, because
// Line 12 replaces a flipped c'_j with Com(1,0) * c'_j^{-1} = Com(1 - v_j, -s_j).
// The three vectors hold one entry per coin.
template <typename S>
void FoldCoins(const std::vector<int>& bits, const std::vector<S>& randomness,
               const std::vector<bool>& public_bits, S* y, S* z) {
  for (size_t j = 0; j < bits.size(); ++j) {
    const bool b = public_bits[j];
    *y += S::FromU64(static_cast<uint64_t>(b ? 1 - bits[j] : bits[j]));  // v XOR b for a bit v
    if (b) {
      *z -= randomness[j];
    } else {
      *z += randomness[j];
    }
  }
}

// Lines 5-6, the verifier's side: appends the O_OR instances of one bin's
// coins, coin j bound to context + "/j" as CommitCoinBatch proved it, for
// one BatchOrVerify over every bin. Returns false, appending nothing, when
// the proof and commitment counts differ.
template <PrimeOrderGroup G>
bool AddCoinInstances(const std::vector<typename G::Element>& commitments,
                      const std::vector<OrProof<G>>& proofs, const std::string& context,
                      std::vector<OrInstance<G>>* instances) {
  if (proofs.size() != commitments.size()) {
    return false;
  }
  for (size_t j = 0; j < commitments.size(); ++j) {
    instances->push_back({commitments[j], proofs[j], context + "/" + std::to_string(j)});
  }
  return true;
}

// Lines 12-13 (Eq. 10) for one bin: `base` (the product of the bin's client
// commitments, or a committed aggregate) times the updated coin commitments
// must open to (y, z). Line 12 folds the public bit into each coin
// commitment: when b = 1 the committed value flips to 1 - v without the
// verifier ever seeing v, Com(1,0) * Com(v,s)^{-1} = Com(1-v, -s). Over f
// flipped coins that is Com(f,0) * (prod of the flipped)^{-1}, so a bin
// costs one comb and one inversion however many coins flip. False when the
// coin and public-bit counts differ.
template <PrimeOrderGroup G>
bool CheckFinalBin(const Pedersen<G>& ped, const typename G::Element& base,
                   const std::vector<typename G::Element>& coin_commitments,
                   const std::vector<bool>& public_bits, const typename G::Scalar& y,
                   const typename G::Scalar& z) {
  using S = typename G::Scalar;
  if (public_bits.size() != coin_commitments.size()) {
    return false;
  }
  typename G::Element lhs = base;
  typename G::Element flipped = G::Identity();
  uint64_t num_flipped = 0;
  for (size_t j = 0; j < coin_commitments.size(); ++j) {
    if (public_bits[j]) {
      flipped = G::Mul(flipped, coin_commitments[j]);
      ++num_flipped;
    } else {
      lhs = G::Mul(lhs, coin_commitments[j]);
    }
  }
  lhs = G::Mul(lhs, G::Mul(ped.Commit(S::FromU64(num_flipped), S::Zero()), G::Inverse(flipped)));
  return lhs == ped.Commit(y, z);
}

}  // namespace vdp

#endif  // SRC_CORE_COINS_H_
