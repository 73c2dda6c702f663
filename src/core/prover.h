// The prover Pv_k of Pi_Bin (Figure 2, right column).
//
// One instance per server. In the trusted-curator model (K = 1) the single
// prover holds plaintext inputs; with K >= 2 it holds additive shares. The
// virtual hooks exist so the adversarial provers in core/adversary.h can
// deviate at precisely the protocol steps the soundness proof enumerates.
#ifndef SRC_CORE_PROVER_H_
#define SRC_CORE_PROVER_H_

#include <memory>
#include <vector>

#include "src/core/client.h"
#include "src/core/coins.h"
#include "src/core/messages.h"
#include "src/morra/morra.h"

namespace vdp {

template <PrimeOrderGroup G>
class Prover {
 public:
  using Element = typename G::Element;
  using Scalar = typename G::Scalar;

  Prover(size_t index, const ProtocolConfig& config, Pedersen<G> ped, SecureRng rng)
      : index_(index),
        config_(config),
        ped_(std::move(ped)),
        rng_(std::move(rng)),
        share_sum_(config.num_bins, Scalar::Zero()),
        randomness_sum_(config.num_bins, Scalar::Zero()) {}

  virtual ~Prover() = default;

  size_t index() const { return index_; }

  // Accumulates the shares of publicly validated clients (Line 2/10). The
  // driver feeds only clients on the public accepted record.
  virtual void LoadClientShares(const std::vector<ClientShareMsg<G>>& shares) {
    for (const auto& share : shares) {
      for (size_t bin = 0; bin < config_.num_bins; ++bin) {
        share_sum_[bin] += share.values[bin];
        randomness_sum_[bin] += share.randomness[bin];
      }
    }
  }

  // Lines 4-6: sample private bits v_{j,bin}, commit and prove them (the
  // coin pipeline of src/core/coins.h, one batch per bin).
  virtual ProverCoinsMsg<G> CommitCoins(ThreadPool* pool = nullptr) {
    const size_t bins = config_.num_bins;
    private_bits_.assign(bins, {});
    coin_randomness_.assign(bins, {});

    ProverCoinsMsg<G> msg;
    msg.coin_commitments.resize(bins);
    msg.coin_proofs.resize(bins);
    for (size_t bin = 0; bin < bins; ++bin) {
      CoinBatch<G> coins = CommitCoinBatch(ped_, config_.NumCoins(), rng_,
                                           CoinProofContext(config_.session_id, index_, bin), pool);
      msg.coin_commitments[bin] = std::move(coins.commitments);
      msg.coin_proofs[bin] = std::move(coins.proofs);
      private_bits_[bin] = std::move(coins.bits);
      coin_randomness_[bin] = std::move(coins.randomness);
    }
    return msg;
  }

  // Line 7-8: the prover's Morra participant (adversaries may supply a
  // cheating one).
  virtual std::unique_ptr<MorraParty<G>> MakeMorraParty() {
    return std::make_unique<MorraParty<G>>(rng_.Fork("morra"));
  }
  virtual SeedMorraParty MakeSeedMorraParty() {
    return SeedMorraParty{rng_.Fork("seed-morra"), false, false};
  }

  // Line 9: receive the jointly generated public bits b_{j,bin}.
  virtual void ReceivePublicCoins(const std::vector<std::vector<bool>>& bits) {
    public_bits_ = bits;
  }

  // Lines 10-11: the accepted clients' sums plus this prover's coins
  // (FoldCoins).
  virtual ProverOutputMsg<G> ComputeOutput() {
    ProverOutputMsg<G> out;
    out.y = share_sum_;
    out.z = randomness_sum_;
    for (size_t bin = 0; bin < config_.num_bins; ++bin) {
      FoldCoins(private_bits_[bin], coin_randomness_[bin], public_bits_[bin], &out.y[bin],
                &out.z[bin]);
    }
    return out;
  }

 protected:
  size_t index_;
  ProtocolConfig config_;
  Pedersen<G> ped_;
  SecureRng rng_;

  std::vector<Scalar> share_sum_;       // [M] sum of accepted client share values
  std::vector<Scalar> randomness_sum_;  // [M] sum of their commitment randomness
  std::vector<std::vector<int>> private_bits_;      // [M][nb]
  std::vector<std::vector<Scalar>> coin_randomness_;  // [M][nb]
  std::vector<std::vector<bool>> public_bits_;      // [M][nb]
};

}  // namespace vdp

#endif  // SRC_CORE_PROVER_H_
