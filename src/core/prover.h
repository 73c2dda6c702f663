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

  // Line 4: sample private bits v_{j,bin} and commit; Lines 5-6 proofs ride
  // along (Fiat-Shamir).
  virtual ProverCoinsMsg<G> CommitCoins(ThreadPool* pool = nullptr) {
    const size_t bins = config_.num_bins;
    const size_t nb = config_.NumCoins();
    private_bits_.assign(bins, {});
    coin_randomness_.assign(bins, {});

    ProverCoinsMsg<G> msg;
    msg.coin_commitments.resize(bins);
    msg.coin_proofs.resize(bins);
    for (size_t bin = 0; bin < bins; ++bin) {
      std::vector<int> bits(nb);
      std::vector<Scalar> rs(nb);
      std::vector<Element> cs(nb);
      // The draws stay sequential (the coins are a function of the seed);
      // only the commitments fan out.
      for (size_t j = 0; j < nb; ++j) {
        bits[j] = rng_.NextBit() ? 1 : 0;
        rs[j] = Scalar::Random(rng_);
      }
      ForEachIndex(pool, nb, [&](size_t j) {
        cs[j] = ped_.Commit(Scalar::FromU64(static_cast<uint64_t>(bits[j])), rs[j]);
      });
      msg.coin_proofs[bin] =
          OrProveBatch(ped_, cs, bits, rs, rng_, CoinProofContext(bin), pool);
      msg.coin_commitments[bin] = std::move(cs);
      private_bits_[bin] = std::move(bits);
      coin_randomness_[bin] = std::move(rs);
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

  // Lines 10-11. The opening randomness for flipped coins enters with a
  // negative sign because the verifier's Line-12 update replaces c' with
  // Com(1,0) * c'^{-1} (see DESIGN.md erratum #1).
  virtual ProverOutputMsg<G> ComputeOutput() {
    const size_t bins = config_.num_bins;
    const size_t nb = config_.NumCoins();
    ProverOutputMsg<G> out;
    out.y.resize(bins, Scalar::Zero());
    out.z.resize(bins, Scalar::Zero());
    for (size_t bin = 0; bin < bins; ++bin) {
      Scalar y = share_sum_[bin];
      Scalar z = randomness_sum_[bin];
      for (size_t j = 0; j < nb; ++j) {
        bool b = public_bits_[bin][j];
        int v = private_bits_[bin][j];
        int v_hat = b ? 1 - v : v;  // v XOR b, valid because v is a bit
        y += Scalar::FromU64(static_cast<uint64_t>(v_hat));
        if (b) {
          z -= coin_randomness_[bin][j];
        } else {
          z += coin_randomness_[bin][j];
        }
      }
      out.y[bin] = y;
      out.z[bin] = z;
    }
    return out;
  }

  std::string CoinProofContext(size_t bin) const {
    return config_.session_id + "/prover/" + std::to_string(index_) + "/coins/bin/" +
           std::to_string(bin);
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
