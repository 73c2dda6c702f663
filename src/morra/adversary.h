// Adversarial Morra participants for soundness and robustness tests, plus the
// commitment-free strawman that motivates Theorem 5.2.
#ifndef SRC_MORRA_ADVERSARY_H_
#define SRC_MORRA_ADVERSARY_H_

#include "src/morra/morra.h"

namespace vdp {

// Attempts to change its contribution after seeing other parties' reveals.
// Binding commitments make this detectable: RunMorra attributes the abort.
template <PrimeOrderGroup G>
class EquivocatingMorraParty : public MorraParty<G> {
 public:
  using Base = MorraParty<G>;
  using typename Base::Element;
  using typename Base::Opening;
  using Scalar = typename Base::Scalar;

  explicit EquivocatingMorraParty(SecureRng rng) : Base(std::move(rng)) {}

  std::vector<Opening> RevealPhase() override {
    // Re-sample contributions, hoping to steer the coins. The commitments
    // broadcast earlier no longer match.
    for (auto& o : this->openings_) {
      o.m = Scalar::Random(this->rng_);
    }
    return this->openings_;
  }
};

// Refuses to reveal (early abort). Detected, never biases output.
template <PrimeOrderGroup G>
class AbortingMorraParty : public MorraParty<G> {
 public:
  using Base = MorraParty<G>;
  using typename Base::Opening;

  explicit AbortingMorraParty(SecureRng rng) : Base(std::move(rng)) {}

  std::vector<Opening> RevealPhase() override { return {}; }
};

// Samples adversarially (all-zero contributions) but follows the protocol.
// As long as one other party is honest, the coins remain unbiased -- the test
// suite verifies this empirically.
template <PrimeOrderGroup G>
class ZeroContributionMorraParty : public MorraParty<G> {
 public:
  using Base = MorraParty<G>;
  using typename Base::Opening;
  using Scalar = typename Base::Scalar;

  explicit ZeroContributionMorraParty(SecureRng rng) : Base(std::move(rng)) {}

 protected:
  Opening DrawOpening() override { return Opening{Scalar::Zero(), Scalar::Random(this->rng_)}; }
};

// The commitment-free strawman: parties announce contributions in order, in
// plaintext. The last announcer sees everything before speaking and can force
// any coin value -- the executable version of why commitments (and hence
// one-way functions, Theorem 5.2) are necessary for verifiable DP.
struct PlaintextCoinResult {
  std::vector<bool> coins;
};

template <PrimeOrderGroup G>
PlaintextCoinResult RunCommitmentFreeMorra(size_t num_honest, size_t num_coins,
                                           bool adversary_last, bool target_value,
                                           SecureRng& rng) {
  using Scalar = typename G::Scalar;
  auto half_q = Scalar::Order();
  half_q.ShiftRight1();

  PlaintextCoinResult result;
  result.coins.reserve(num_coins);
  for (size_t j = 0; j < num_coins; ++j) {
    Scalar sum = Scalar::Zero();
    for (size_t i = 0; i < num_honest; ++i) {
      sum += Scalar::Random(rng);
    }
    if (adversary_last) {
      // The adversary picks its contribution after seeing `sum`: choose a to
      // land sum + a on the desired side of the threshold.
      Scalar desired = target_value
                           ? Scalar::FromInt(Scalar::Order()) - Scalar::One()  // q-1: top
                           : Scalar::Zero();                                   // bottom
      Scalar a = desired - sum;
      sum += a;
    }
    result.coins.push_back(sum.value() > half_q);
  }
  return result;
}

}  // namespace vdp

#endif  // SRC_MORRA_ADVERSARY_H_
