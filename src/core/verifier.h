// The public verifier of Pi_Bin (Figure 2, left column).
//
// Everything the verifier consumes is broadcast, so any bystander can rerun
// these checks -- this is what makes the protocol publicly auditable
// (Table 2's "Auditable" column).
#ifndef SRC_CORE_VERIFIER_H_
#define SRC_CORE_VERIFIER_H_

#include <vector>

#include "src/batch/batch_or_proof.h"
#include "src/core/client.h"
#include "src/core/messages.h"
#include "src/core/verdict.h"
#include "src/verify/factory.h"

namespace vdp {

template <PrimeOrderGroup G>
class PublicVerifier {
 public:
  using Element = typename G::Element;
  using Scalar = typename G::Scalar;

  PublicVerifier(const ProtocolConfig& config, Pedersen<G> ped)
      : config_(config), ped_(std::move(ped)) {}

  const Pedersen<G>& pedersen() const { return ped_; }

  // Line 3: public client validation, executed by whichever VerifyBackend
  // the config's flags select (src/verify/factory.h owns that policy; all
  // backends are decision-identical). Returns the full structured report:
  // accepted indices, typed rejection reasons, and -- unless
  // compute_products is false -- the per-prover/per-bin products of accepted
  // commitments that CheckFinalWithProducts consumes, so the Eq. 10 product
  // is never recomputed from scratch.
  VerifyReport<G> ValidateClientsReport(const std::vector<ClientUploadMsg<G>>& uploads,
                                        ThreadPool* pool = nullptr,
                                        bool compute_products = true) const {
    VerifyOptions options;
    options.compute_products = compute_products;
    options.pool = pool;
    return MakeVerifyBackend<G>(config_, ped_)->VerifyAll(uploads, options);
  }

  // Line 3, accepted indices only. Rendered rejection reasons (the canonical
  // "client <i>: <why>" strings) are appended to *reasons when provided.
  std::vector<size_t> ValidateClients(const std::vector<ClientUploadMsg<G>>& uploads,
                                      std::vector<std::string>* reasons = nullptr,
                                      ThreadPool* pool = nullptr) const {
    VerifyReport<G> report =
        ValidateClientsReport(uploads, pool, /*compute_products=*/false);
    if (reasons != nullptr) {
      for (const RejectionReason& r : report.rejections) {
        reasons->push_back(r.Render());
      }
    }
    return std::move(report.accepted);
  }

  // Lines 5-6: every private coin commitment must prove membership in LBit.
  bool CheckCoinProofs(size_t prover_index, const ProverCoinsMsg<G>& msg,
                       ThreadPool* pool = nullptr) const {
    const size_t bins = config_.num_bins;
    const size_t nb = config_.NumCoins();
    if (msg.coin_commitments.size() != bins || msg.coin_proofs.size() != bins) {
      return false;
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      if (msg.coin_commitments[bin].size() != nb || msg.coin_proofs[bin].size() != nb) {
        return false;
      }
    }
    if (config_.batch_verify) {
      // All bins' coin proofs in one RLC check. An all-valid message always
      // accepts (completeness is exact), and a failed batch implies some
      // proof is invalid, so the boolean verdict matches the per-proof path.
      std::vector<OrInstance<G>> instances;
      instances.reserve(bins * nb);
      for (size_t bin = 0; bin < bins; ++bin) {
        std::string context = CoinProofContext(prover_index, bin);
        for (size_t j = 0; j < nb; ++j) {
          instances.push_back({msg.coin_commitments[bin][j], msg.coin_proofs[bin][j],
                               context + "/" + std::to_string(j)});
        }
      }
      return BatchOrVerify(ped_, instances, pool);
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      if (!OrVerifyBatch(ped_, msg.coin_commitments[bin], msg.coin_proofs[bin],
                         CoinProofContext(prover_index, bin), pool)) {
        return false;
      }
    }
    return true;
  }

  // Line 13 (Eq. 10) for prover k: the product of accepted client-share
  // commitments and updated coin commitments must open to (y_k, z_k).
  bool CheckFinal(size_t prover_index, const std::vector<ClientUploadMsg<G>>& uploads,
                  const std::vector<size_t>& accepted_clients, const ProverCoinsMsg<G>& coins,
                  const std::vector<std::vector<bool>>& public_bits,
                  const ProverOutputMsg<G>& output) const {
    const size_t bins = config_.num_bins;
    if (output.y.size() != bins || output.z.size() != bins) {
      return false;
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      Element product = G::Identity();
      for (size_t client : accepted_clients) {
        product = G::Mul(product, uploads[client].commitments[prover_index][bin]);
      }
      if (!CheckFinalBin(bin, product, coins, public_bits, output)) {
        return false;  // reject on the first bad bin, before touching the rest
      }
    }
    return true;
  }

  // Eq. 10 given the precomputed per-bin product of this prover's accepted
  // client commitments -- a VerifyReport's commitment_products[k]
  // (src/verify/report.h), so validation's products are reused instead of
  // re-multiplying every accepted upload.
  bool CheckFinalWithProducts(const std::vector<Element>& client_products,
                              const ProverCoinsMsg<G>& coins,
                              const std::vector<std::vector<bool>>& public_bits,
                              const ProverOutputMsg<G>& output) const {
    const size_t bins = config_.num_bins;
    if (output.y.size() != bins || output.z.size() != bins ||
        client_products.size() != bins) {
      return false;
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      if (!CheckFinalBin(bin, client_products[bin], coins, public_bits, output)) {
        return false;
      }
    }
    return true;
  }

 private:
  // One bin of Eq. 10: client_product times the updated coin commitments
  // must open to (y_bin, z_bin). Line 12 folds the public bit into each coin
  // commitment: when b = 1 the committed value flips to 1 - v without the
  // verifier ever seeing v, Com(1,0) * Com(v,s)^{-1} = Com(1-v, -s). Over f
  // flipped coins that is Com(f,0) * (prod of the flipped)^{-1}, so a bin
  // costs one comb and one inversion however many coins flip.
  bool CheckFinalBin(size_t bin, const Element& client_product, const ProverCoinsMsg<G>& coins,
                     const std::vector<std::vector<bool>>& public_bits,
                     const ProverOutputMsg<G>& output) const {
    const size_t nb = config_.NumCoins();
    Element lhs = client_product;
    Element flipped = G::Identity();
    uint64_t num_flipped = 0;
    for (size_t j = 0; j < nb; ++j) {
      if (public_bits[bin][j]) {
        flipped = G::Mul(flipped, coins.coin_commitments[bin][j]);
        ++num_flipped;
      } else {
        lhs = G::Mul(lhs, coins.coin_commitments[bin][j]);
      }
    }
    lhs = G::Mul(lhs, G::Mul(ped_.Commit(Scalar::FromU64(num_flipped), Scalar::Zero()),
                             G::Inverse(flipped)));
    return lhs == ped_.Commit(output.y[bin], output.z[bin]);
  }

  std::string CoinProofContext(size_t prover_index, size_t bin) const {
    return config_.session_id + "/prover/" + std::to_string(prover_index) + "/coins/bin/" +
           std::to_string(bin);
  }

  ProtocolConfig config_;
  Pedersen<G> ped_;
};

}  // namespace vdp

#endif  // SRC_CORE_VERIFIER_H_
