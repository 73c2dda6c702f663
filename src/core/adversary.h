// Malicious provers and clients: one class per cheat the soundness proof of
// Theorem 4.1 enumerates, plus the Figure-1 client-side attacks. Tests pair
// each adversary with the honest verifier and assert detection/attribution.
#ifndef SRC_CORE_ADVERSARY_H_
#define SRC_CORE_ADVERSARY_H_

#include "src/core/prover.h"
#include "src/morra/adversary.h"

namespace vdp {

// Cheat at Line 4: one "private coin" is a commitment to 2, not a bit. The
// prover still produces an OR proof (which cannot verify) hoping the verifier
// is lazy.
template <PrimeOrderGroup G>
class NonBitCoinProver : public Prover<G> {
 public:
  using Base = Prover<G>;
  using Base::Base;
  using Scalar = typename Base::Scalar;

  ProverCoinsMsg<G> CommitCoins(ThreadPool* pool = nullptr) override {
    ProverCoinsMsg<G> msg = Base::CommitCoins(pool);
    // Replace coin 0 of bin 0 with a commitment to 2; fabricate a proof by
    // running the honest prover code with a false claimed bit.
    Scalar r = Scalar::Random(this->rng_);
    auto c = this->ped_.Commit(Scalar::FromU64(2), r);
    msg.coin_commitments[0][0] = c;
    msg.coin_proofs[0][0] =
        OrProve(this->ped_, c, 0, r, this->rng_,
                CoinProofContext(this->config_.session_id, this->index_, 0) + "/0");
    // Keep internal state consistent with the lie so the final message also
    // uses v = 2 (both checks must catch it regardless).
    this->private_bits_[0][0] = 2;
    this->coin_randomness_[0][0] = r;
    return msg;
  }
};

// Cheat at Line 10: publish y' = y + bias, leaving z untouched. Biasing the
// published statistic is the paper's headline attack ("blame the noise").
template <PrimeOrderGroup G>
class BiasedOutputProver : public Prover<G> {
 public:
  using Base = Prover<G>;
  using Scalar = typename Base::Scalar;

  BiasedOutputProver(size_t index, const ProtocolConfig& config, Pedersen<G> ped, SecureRng rng,
                     uint64_t bias)
      : Base(index, config, std::move(ped), std::move(rng)), bias_(bias) {}

  ProverOutputMsg<G> ComputeOutput() override {
    ProverOutputMsg<G> out = Base::ComputeOutput();
    out.y[0] += Scalar::FromU64(bias_);
    return out;
  }

 private:
  uint64_t bias_;
};

// Input tampering (Figure 1a flavor): silently drops the first accepted
// client's share from its aggregate, attempting to exclude an honest voter.
template <PrimeOrderGroup G>
class ClientDroppingProver : public Prover<G> {
 public:
  using Base = Prover<G>;
  using Base::Base;

  void LoadClientShares(const std::vector<ClientShareMsg<G>>& shares) override {
    if (shares.empty()) {
      return;
    }
    std::vector<ClientShareMsg<G>> tampered(shares.begin() + 1, shares.end());
    Base::LoadClientShares(tampered);
  }
};

// Skips the DP noise entirely: outputs only the sum of client shares and the
// client randomness, ignoring its committed coins.
template <PrimeOrderGroup G>
class NoNoiseProver : public Prover<G> {
 public:
  using Base = Prover<G>;
  using Base::Base;
  using Scalar = typename Base::Scalar;

  ProverOutputMsg<G> ComputeOutput() override {
    ProverOutputMsg<G> out;
    out.y = this->share_sum_;
    out.z = this->randomness_sum_;
    return out;
  }
};

// Cheats inside Morra (Line 7): supplies an equivocating participant that
// tries to re-pick its contribution after seeing the verifier's reveal.
template <PrimeOrderGroup G>
class MorraCheatingProver : public Prover<G> {
 public:
  using Base = Prover<G>;
  using Base::Base;

  std::unique_ptr<MorraParty<G>> MakeMorraParty() override {
    return std::make_unique<EquivocatingMorraParty<G>>(this->rng_.Fork("morra-cheat"));
  }
};

// ---------------------------------------------------------------------------
// Malicious clients (Figure 1b flavors).

// Submits an out-of-language input (a bin value of `value` instead of a bit)
// with the honest proving code. The Line-3 check must reject it.
template <PrimeOrderGroup G>
ClientBundle<G> MakeNonBitClientBundle(uint64_t value, size_t client_index,
                                       const ProtocolConfig& config, const Pedersen<G>& ped,
                                       SecureRng& rng) {
  std::vector<uint64_t> values(config.num_bins, 0);
  values[0] = value;  // illegal weight in bin 0
  return MakeClientBundleFromValues<G>(values, client_index, config, ped, rng);
}

// Votes in bins 0 and 1 at once (each bin individually a valid bit, so the OR
// proofs verify); only the sum-to-one check can catch it: the committed
// values sum to 2, so Com(1, sum_randomness) cannot match.
template <PrimeOrderGroup G>
ClientBundle<G> MakeDoubleVoteClientBundle(size_t client_index, const ProtocolConfig& config,
                                           const Pedersen<G>& ped, SecureRng& rng) {
  std::vector<uint64_t> values(config.num_bins, 0);
  values[0] = 1;
  values[1] = 1;
  return MakeClientBundleFromValues<G>(values, client_index, config, ped, rng);
}

// Publicly honest upload, but the share sent to prover 0 is garbage
// (inconsistent with the broadcast commitment).
template <PrimeOrderGroup G>
ClientBundle<G> MakeInconsistentShareClientBundle(uint32_t choice, size_t client_index,
                                                  const ProtocolConfig& config,
                                                  const Pedersen<G>& ped, SecureRng& rng) {
  ClientBundle<G> bundle = MakeClientBundle<G>(choice, client_index, config, ped, rng);
  using S = typename G::Scalar;
  bundle.shares[0].values[0] += S::One();  // no longer opens the commitment
  return bundle;
}

// Valid input, corrupted proof bytes: must be rejected (and is
// distinguishable from the honest-client-excluded-by-server attack because
// validation is public).
template <PrimeOrderGroup G>
ClientBundle<G> MakeBadProofClientBundle(uint32_t choice, size_t client_index,
                                         const ProtocolConfig& config, const Pedersen<G>& ped,
                                         SecureRng& rng) {
  ClientBundle<G> bundle = MakeClientBundle<G>(choice, client_index, config, ped, rng);
  using S = typename G::Scalar;
  bundle.upload.bin_proofs[0].z0 = bundle.upload.bin_proofs[0].z0 + S::One();
  return bundle;
}

}  // namespace vdp

#endif  // SRC_CORE_ADVERSARY_H_
