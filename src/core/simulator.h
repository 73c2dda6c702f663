// The zero-knowledge simulator of Theorem 4.1 / Appendix D (trusted-curator
// form, K = 1).
//
// Given only the public client commitments and the ideal functionality's
// output y = M_Bin(X, Q), the simulator fabricates a full protocol
// transcript -- coin commitments, public bits, and the final (y, z) opening
// -- that passes every verifier check, without ever knowing the clients'
// inputs or the real prover's noise. In the hybrid model the simulator plays
// the O_morra and O_OR oracles, which is why it may sample the public bits
// itself and answer bit-membership queries affirmatively (tests exercise the
// latter through OrSimulate's chosen-challenge transcripts).
//
// The existence of this constructive simulator is the protocol's
// zero-knowledge property: anything a (corrupt) verifier sees, it could have
// generated alone from the public output.
#ifndef SRC_CORE_SIMULATOR_H_
#define SRC_CORE_SIMULATOR_H_

#include <vector>

#include "src/commit/pedersen.h"
#include "src/sigma/or_proof.h"

namespace vdp {

template <PrimeOrderGroup G>
struct SimulatedCuratorTranscript {
  std::vector<typename G::Element> coin_commitments;  // c'_j (Line 4 message)
  std::vector<bool> public_bits;                      // b_j (simulated O_morra)
  typename G::Scalar y;                               // Line 10 message
  typename G::Scalar z;                               // Line 11 message
};

// Line 12 update, the map PublicVerifier folds into Eq. 10:
// ĉ' = b ? Com(1,0) * c'^{-1} : c'.
// The map is an involution, which the simulator exploits to pick post-update
// commitments first and derive what it must "send" at Line 4.
template <PrimeOrderGroup G>
typename G::Element UpdateCommitment(const Pedersen<G>& ped, const typename G::Element& c,
                                     bool bit) {
  using S = typename G::Scalar;
  if (!bit) {
    return c;
  }
  return G::Mul(ped.Commit(S::One(), S::Zero()), G::Inverse(c));
}

template <PrimeOrderGroup G>
SimulatedCuratorTranscript<G> SimulateCurator(
    const Pedersen<G>& ped, const std::vector<typename G::Element>& client_commitments,
    const typename G::Scalar& ideal_output, size_t num_coins, SecureRng& rng) {
  using S = typename G::Scalar;
  SimulatedCuratorTranscript<G> sim;
  sim.y = ideal_output;
  sim.z = S::Random(rng);
  auto target = ped.Commit(sim.y, sim.z);

  // Simulator plays O_morra: it may fix the "public" bits itself.
  sim.public_bits.resize(num_coins);
  for (size_t j = 0; j < num_coins; ++j) {
    sim.public_bits[j] = rng.NextBit();
  }

  // Choose the post-update commitments: free Com(1, s_j) for j >= 1, then
  // solve for slot 0 so the Line 13 product telescopes to `target`
  // (Appendix D step 4).
  std::vector<typename G::Element> updated(num_coins);
  auto residue = target;
  for (const auto& c : client_commitments) {
    residue = G::Mul(residue, G::Inverse(c));
  }
  for (size_t j = 1; j < num_coins; ++j) {
    updated[j] = ped.Commit(S::One(), S::Random(rng));
    residue = G::Mul(residue, G::Inverse(updated[j]));
  }
  updated[0] = residue;

  // Derive the Line 4 messages by inverting the update.
  sim.coin_commitments.resize(num_coins);
  for (size_t j = 0; j < num_coins; ++j) {
    sim.coin_commitments[j] = UpdateCommitment(ped, updated[j], sim.public_bits[j]);
  }
  return sim;
}

// Replays the verifier's algebraic checks (Lines 12-13) on a transcript.
template <PrimeOrderGroup G>
bool VerifyCuratorTranscript(const Pedersen<G>& ped,
                             const std::vector<typename G::Element>& client_commitments,
                             const SimulatedCuratorTranscript<G>& transcript) {
  auto lhs = G::Identity();
  for (const auto& c : client_commitments) {
    lhs = G::Mul(lhs, c);
  }
  for (size_t j = 0; j < transcript.coin_commitments.size(); ++j) {
    lhs = G::Mul(lhs, UpdateCommitment(ped, transcript.coin_commitments[j],
                                       transcript.public_bits[j]));
  }
  return lhs == ped.Commit(transcript.y, transcript.z);
}

}  // namespace vdp

#endif  // SRC_CORE_SIMULATOR_H_
