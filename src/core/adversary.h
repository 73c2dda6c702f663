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
  using S = typename G::Scalar;
  const size_t k = config.num_provers;
  const size_t m = config.num_bins;
  ClientBundle<G> bundle;
  bundle.shares.resize(k);
  bundle.upload.commitments.resize(k);
  for (size_t p = 0; p < k; ++p) {
    bundle.shares[p].values.resize(m);
    bundle.shares[p].randomness.resize(m);
    bundle.upload.commitments[p].resize(m);
  }
  S total_randomness = S::Zero();
  for (size_t bin = 0; bin < m; ++bin) {
    uint64_t x = (bin == 0) ? value : 0;  // illegal weight in bin 0
    auto value_shares = ShareAdditive(S::FromU64(x), k, rng);
    S bin_randomness = S::Zero();
    auto aggregated = G::Identity();
    for (size_t p = 0; p < k; ++p) {
      S r = S::Random(rng);
      bundle.shares[p].values[bin] = value_shares[p];
      bundle.shares[p].randomness[bin] = r;
      bundle.upload.commitments[p][bin] = ped.Commit(value_shares[p], r);
      aggregated = G::Mul(aggregated, bundle.upload.commitments[p][bin]);
      bin_randomness += r;
    }
    total_randomness += bin_randomness;
    bundle.upload.bin_proofs.push_back(
        OrProve(ped, aggregated, static_cast<int>(x != 0), bin_randomness, rng,
                ClientProofContext(config.session_id, client_index, bin)));
  }
  bundle.upload.sum_randomness = total_randomness;
  return bundle;
}

// Votes in two bins at once (each bin individually a valid bit, so the OR
// proofs verify); only the sum-to-one check can catch it.
template <PrimeOrderGroup G>
ClientBundle<G> MakeDoubleVoteClientBundle(size_t client_index, const ProtocolConfig& config,
                                           const Pedersen<G>& ped, SecureRng& rng) {
  // Build an honest bundle for choice 0, then rebuild bin 1 as another vote.
  ClientBundle<G> bundle = MakeClientBundle<G>(0, client_index, config, ped, rng);
  using S = typename G::Scalar;
  const size_t k = config.num_provers;
  auto value_shares = ShareAdditive(S::One(), k, rng);
  S bin_randomness = S::Zero();
  auto aggregated = G::Identity();
  for (size_t p = 0; p < k; ++p) {
    S r = S::Random(rng);
    bundle.shares[p].values[1] = value_shares[p];
    bundle.shares[p].randomness[1] = r;
    bundle.upload.commitments[p][1] = ped.Commit(value_shares[p], r);
    aggregated = G::Mul(aggregated, bundle.upload.commitments[p][1]);
    bin_randomness += r;
  }
  bundle.upload.bin_proofs[1] = OrProve(ped, aggregated, 1, bin_randomness, rng,
                                        ClientProofContext(config.session_id, client_index, 1));
  // Recompute claimed sum randomness honestly; the sum of committed values is
  // now 2, so Com(1, sum_randomness) cannot match no matter what they claim.
  S total = S::Zero();
  for (size_t p = 0; p < k; ++p) {
    for (size_t bin = 0; bin < config.num_bins; ++bin) {
      total += bundle.shares[p].randomness[bin];
    }
  }
  bundle.upload.sum_randomness = total;
  return bundle;
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
