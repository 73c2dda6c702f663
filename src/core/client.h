// Client-side input preparation and the public validation rule (Line 2-3 of
// Figure 2).
//
// A client holding choice x builds: additive shares of the (bit or one-hot)
// encoding for each of the K provers, Pedersen commitments to every share
// (broadcast publicly), a Sigma-OR proof per bin that the *aggregated*
// commitment opens to a bit, and -- for M > 1 -- the total randomness that
// opens the product of all bin commitments to exactly one (one-hot check).
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <string>
#include <vector>

#include "src/commit/pedersen.h"
#include "src/core/messages.h"
#include "src/core/params.h"
#include "src/share/additive.h"
#include "src/verify/report.h"

namespace vdp {

template <PrimeOrderGroup G>
struct ClientBundle {
  ClientUploadMsg<G> upload;              // public broadcast
  std::vector<ClientShareMsg<G>> shares;  // [K], sent privately to each prover
};

// Fiat-Shamir context for client i's bin-m validity proof.
inline std::string ClientProofContext(const std::string& session_id, size_t client_index,
                                      size_t bin) {
  return session_id + "/client/" + std::to_string(client_index) + "/bin/" + std::to_string(bin);
}

// Fiat-Shamir context for prover k's bin-m coin validity proofs; coin j's
// proof is bound to this context + "/j". The prover and the verifier must
// build the same string, so both call this.
inline std::string CoinProofContext(const std::string& session_id, size_t prover_index,
                                    size_t bin) {
  return session_id + "/prover/" + std::to_string(prover_index) + "/coins/bin/" +
         std::to_string(bin);
}

// Line 2 for explicit committed values, one per bin: shares values[bin]
// among the K provers, commits every share, and proves each bin's aggregated
// commitment a bit, claiming 1 for any nonzero value -- so a value outside
// {0,1} yields a proof that cannot verify (the cheating clients of
// src/core/adversary.h are built this way). sum_randomness opens the product
// of all commitments to the sum of the values.
template <PrimeOrderGroup G>
ClientBundle<G> MakeClientBundleFromValues(const std::vector<uint64_t>& values,
                                           size_t client_index, const ProtocolConfig& config,
                                           const Pedersen<G>& ped, SecureRng& rng) {
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

  // Each bin's proof is begun in the loop (keeping the RNG order: shares,
  // randomness, then the proof's draws), and all M are finished after one
  // batch encoding of their first messages.
  std::vector<int> bits(m);
  std::vector<S> bin_randomness(m, S::Zero());
  std::vector<S> nonces(m);
  std::vector<typename G::Element> aggregated(m, G::Identity());
  bundle.upload.bin_proofs.resize(m);
  S total_randomness = S::Zero();
  for (size_t bin = 0; bin < m; ++bin) {
    bits[bin] = values[bin] != 0 ? 1 : 0;
    auto value_shares = ShareAdditive(S::FromU64(values[bin]), k, rng);

    for (size_t p = 0; p < k; ++p) {
      S r = S::Random(rng);
      bundle.shares[p].values[bin] = value_shares[p];
      bundle.shares[p].randomness[bin] = r;
      bundle.upload.commitments[p][bin] = ped.Commit(value_shares[p], r);
      bin_randomness[bin] += r;
      // Aggregated commitment c_{i,bin} = prod_k c_{i,k,bin} = Com(value, sum r).
      aggregated[bin] = G::Mul(aggregated[bin], bundle.upload.commitments[p][bin]);
    }
    total_randomness += bin_randomness[bin];
    nonces[bin] =
        BeginOrProve(ped, bits[bin], bin_randomness[bin], rng, &bundle.upload.bin_proofs[bin]);
  }
  const std::vector<Bytes> enc = EncodeOrMessages(aggregated, bundle.upload.bin_proofs);
  for (size_t bin = 0; bin < m; ++bin) {
    const S e = OrChallenge(ped, enc[3 * bin], enc[3 * bin + 1], enc[3 * bin + 2],
                            ClientProofContext(config.session_id, client_index, bin));
    FinishOrProve(bits[bin], bin_randomness[bin], nonces[bin], e, &bundle.upload.bin_proofs[bin]);
  }
  bundle.upload.sum_randomness = total_randomness;
  return bundle;
}

// Builds an honest client's messages. For M == 1, `choice` is the bit value
// (0 or 1); for M > 1, `choice` selects the one-hot bin and must be < M.
template <PrimeOrderGroup G>
ClientBundle<G> MakeClientBundle(uint32_t choice, size_t client_index,
                                 const ProtocolConfig& config, const Pedersen<G>& ped,
                                 SecureRng& rng) {
  const size_t m = config.num_bins;
  std::vector<uint64_t> values(m);
  for (size_t bin = 0; bin < m; ++bin) {
    values[bin] = (m == 1) ? choice : (choice == bin ? 1 : 0);
  }
  return MakeClientBundleFromValues<G>(values, client_index, config, ped, rng);
}

// The structural half of the Line-3 check: upload shape, per-bin aggregated
// commitments, and the one-hot opening (for M > 1). On success returns the
// [M] aggregated commitments whose OR proofs remain to be verified -- the
// per-proof path checks them inline (ValidateClientUpload) while the batch
// verifier (src/batch/batch_or_proof.h) checks them all at once.
template <PrimeOrderGroup G>
std::optional<std::vector<typename G::Element>> ClientUploadStructure(
    const ClientUploadMsg<G>& upload, const ProtocolConfig& config, const Pedersen<G>& ped,
    std::string* reason = nullptr) {
  auto fail = [&](const char* why) {
    if (reason != nullptr) {
      *reason = why;
    }
    return std::nullopt;
  };
  const size_t k = config.num_provers;
  const size_t m = config.num_bins;
  if (upload.commitments.size() != k || upload.bin_proofs.size() != m) {
    return fail(kDetailMalformedUpload);
  }
  for (const auto& row : upload.commitments) {
    if (row.size() != m) {
      return fail(kDetailMalformedUpload);
    }
  }

  std::vector<typename G::Element> aggregated(m);
  auto product_all = G::Identity();
  for (size_t bin = 0; bin < m; ++bin) {
    auto agg = G::Identity();
    for (size_t p = 0; p < k; ++p) {
      agg = G::Mul(agg, upload.commitments[p][bin]);
    }
    product_all = G::Mul(product_all, agg);
    aggregated[bin] = agg;
  }

  if (m > 1) {
    // One-hot: the product over bins must open to exactly 1 with the
    // disclosed total randomness (Appendix C, final paragraph).
    using S = typename G::Scalar;
    if (!ped.Verify(product_all, S::One(), upload.sum_randomness)) {
      return fail(kDetailNotOneHot);
    }
  }
  return aggregated;
}

// The public Line-3 check. Anyone (verifier, provers, bystanders) can run it
// from broadcast data alone; this is what makes the client record public and
// resolves the Figure 1 disputes.
template <PrimeOrderGroup G>
bool ValidateClientUpload(const ClientUploadMsg<G>& upload, size_t client_index,
                          const ProtocolConfig& config, const Pedersen<G>& ped,
                          std::string* reason = nullptr) {
  auto aggregated = ClientUploadStructure(upload, config, ped, reason);
  if (!aggregated.has_value()) {
    return false;
  }
  for (size_t bin = 0; bin < aggregated->size(); ++bin) {
    if (!OrVerify(ped, (*aggregated)[bin], upload.bin_proofs[bin],
                  ClientProofContext(config.session_id, client_index, bin))) {
      if (reason != nullptr) {
        *reason = kDetailProofInvalid;
      }
      return false;
    }
  }
  return true;
}

// Prover-side consistency check of a privately received share against the
// public commitments (a malicious client could send garbage to one prover).
template <PrimeOrderGroup G>
bool ClientShareConsistent(const ClientShareMsg<G>& share,
                           const std::vector<typename G::Element>& expected_commitments,
                           const Pedersen<G>& ped) {
  if (share.values.size() != expected_commitments.size() ||
      share.randomness.size() != expected_commitments.size()) {
    return false;
  }
  for (size_t bin = 0; bin < share.values.size(); ++bin) {
    if (!ped.Verify(expected_commitments[bin], share.values[bin], share.randomness[bin])) {
      return false;
    }
  }
  return true;
}

}  // namespace vdp

#endif  // SRC_CORE_CLIENT_H_
