// The public verifier of Pi_Bin (Figure 2, left column).
//
// Everything the verifier consumes is broadcast, so any bystander can rerun
// these checks -- this is what makes the protocol publicly auditable
// (Table 2's "Auditable" column).
#ifndef SRC_CORE_VERIFIER_H_
#define SRC_CORE_VERIFIER_H_

#include <vector>

#include "src/core/client.h"
#include "src/core/coins.h"
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
  // All bins' coin proofs go into one RLC check (BatchOrVerify): an all-valid
  // message always accepts (completeness is exact), and a failed batch
  // implies some proof is invalid, so the verdict is per-coin OrVerify's.
  bool CheckCoinProofs(size_t prover_index, const ProverCoinsMsg<G>& msg,
                       ThreadPool* pool = nullptr) const {
    const size_t bins = config_.num_bins;
    const size_t nb = config_.NumCoins();
    if (msg.coin_commitments.size() != bins || msg.coin_proofs.size() != bins) {
      return false;
    }
    std::vector<OrInstance<G>> instances;
    instances.reserve(bins * nb);
    for (size_t bin = 0; bin < bins; ++bin) {
      if (msg.coin_commitments[bin].size() != nb ||
          !AddCoinInstances(msg.coin_commitments[bin], msg.coin_proofs[bin],
                            CoinProofContext(config_.session_id, prover_index, bin),
                            &instances)) {
        return false;
      }
    }
    return BatchOrVerify(ped_, instances, pool);
  }

  // Line 13 (Eq. 10) for prover k: the product of accepted client-share
  // commitments and updated coin commitments must open to (y_k, z_k).
  bool CheckFinal(size_t prover_index, const std::vector<ClientUploadMsg<G>>& uploads,
                  const std::vector<size_t>& accepted_clients, const ProverCoinsMsg<G>& coins,
                  const std::vector<std::vector<bool>>& public_bits,
                  const ProverOutputMsg<G>& output) const {
    std::vector<Element> products(config_.num_bins, G::Identity());
    for (size_t client : accepted_clients) {
      for (size_t bin = 0; bin < products.size(); ++bin) {
        products[bin] = G::Mul(products[bin], uploads[client].commitments[prover_index][bin]);
      }
    }
    return CheckFinalWithProducts(products, coins, public_bits, output);
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
        client_products.size() != bins || coins.coin_commitments.size() != bins ||
        public_bits.size() != bins) {
      return false;
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      if (!CheckFinalBin(ped_, client_products[bin], coins.coin_commitments[bin],
                         public_bits[bin], output.y[bin], output.z[bin])) {
        return false;  // reject on the first bad bin, before touching the rest
      }
    }
    return true;
  }

 private:
  ProtocolConfig config_;
  Pedersen<G> ped_;
};

}  // namespace vdp

#endif  // SRC_CORE_VERIFIER_H_
