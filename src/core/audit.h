// Public auditability: the full protocol transcript as bytes, and an
// independent auditor that re-verifies a run from the serialized transcript
// alone.
//
// "As the verifier is public, anyone (even non-participants to Pi_Bin) can
// see the messages it receives" -- this module is that bystander. It shares
// no state with the live run: everything is decoded from the wire bytes
// (with strict subgroup/range checks) and re-checked, which is what makes
// the Table 2 "Auditable" property real rather than aspirational.
#ifndef SRC_CORE_AUDIT_H_
#define SRC_CORE_AUDIT_H_

#include <vector>

#include "src/core/protocol.h"

namespace vdp {

template <PrimeOrderGroup G>
Bytes SerializeTranscript(const PublicTranscript<G>& t) {
  Writer w;
  w.U32(static_cast<uint32_t>(t.client_uploads.size()));
  SerializeUploads(t.client_uploads.data(), t.client_uploads.size(),
                   [&](const Bytes& bytes) { w.Blob(bytes); });
  w.U32(static_cast<uint32_t>(t.prover_coins.size()));
  for (size_t k = 0; k < t.prover_coins.size(); ++k) {
    const auto& coins = t.prover_coins[k];
    w.U32(static_cast<uint32_t>(coins.coin_commitments.size()));
    for (size_t bin = 0; bin < coins.coin_commitments.size(); ++bin) {
      const auto& cs = coins.coin_commitments[bin];
      const auto& proofs = coins.coin_proofs[bin];
      // One encoding batch per bin: (c, a0, a1) of each of its nb coins.
      const std::vector<Bytes> enc = EncodeOrMessages(cs, proofs);
      w.U32(static_cast<uint32_t>(cs.size()));
      for (size_t j = 0; j < cs.size(); ++j) {
        w.Blob(enc[3 * j]);
        w.Blob(proofs[j].Serialize(enc[3 * j + 1], enc[3 * j + 2]));
        w.U8(t.public_bits[k][bin][j] ? 1 : 0);
      }
    }
    w.Blob(t.prover_outputs[k].Serialize());
  }
  return w.Take();
}

// Every count in the transcript is attacker-chosen; each is read through
// Reader::Count with the smallest encoding of one entry, so the parser never
// allocates or loops beyond what the input bytes could actually describe.
template <PrimeOrderGroup G>
std::optional<PublicTranscript<G>> DeserializeTranscript(BytesView data) {
  constexpr size_t kMinProverBytes = 4 + Reader::kMinBlobBytes;  // bins + output
  constexpr size_t kMinBinBytes = 4;                              // nb
  constexpr size_t kMinCoinBytes = 2 * Reader::kMinBlobBytes + 1;  // c, proof, bit
  Reader r(data);
  PublicTranscript<G> t;
  auto n = r.Count(Reader::kMinBlobBytes);
  if (!n) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *n; ++i) {
    auto blob = r.Blob();
    if (!blob) {
      return std::nullopt;
    }
    auto upload = ClientUploadMsg<G>::Deserialize(*blob);
    if (!upload) {
      return std::nullopt;
    }
    t.client_uploads.push_back(std::move(*upload));
  }
  auto k = r.Count(kMinProverBytes);
  if (!k) {
    return std::nullopt;
  }
  for (uint32_t p = 0; p < *k; ++p) {
    auto bins = r.Count(kMinBinBytes);
    if (!bins) {
      return std::nullopt;
    }
    ProverCoinsMsg<G> coins;
    std::vector<std::vector<bool>> bits;
    coins.coin_commitments.resize(*bins);
    coins.coin_proofs.resize(*bins);
    bits.resize(*bins);
    for (uint32_t bin = 0; bin < *bins; ++bin) {
      auto nb = r.Count(kMinCoinBytes);
      if (!nb) {
        return std::nullopt;
      }
      for (uint32_t j = 0; j < *nb; ++j) {
        auto cblob = r.Blob();
        auto pblob = r.Blob();
        auto bit = r.U8();
        if (!cblob || !pblob || !bit || *bit > 1) {
          return std::nullopt;
        }
        auto c = G::Decode(*cblob);
        auto proof = OrProof<G>::Deserialize(*pblob);
        if (!c || !proof) {
          return std::nullopt;
        }
        coins.coin_commitments[bin].push_back(*c);
        coins.coin_proofs[bin].push_back(*proof);
        bits[bin].push_back(*bit == 1);
      }
    }
    auto oblob = r.Blob();
    if (!oblob) {
      return std::nullopt;
    }
    auto output = ProverOutputMsg<G>::Deserialize(*oblob);
    if (!output) {
      return std::nullopt;
    }
    t.prover_coins.push_back(std::move(coins));
    t.public_bits.push_back(std::move(bits));
    t.prover_outputs.push_back(std::move(*output));
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return t;
}

struct AuditReport {
  Verdict verdict;
  std::vector<size_t> accepted_clients;
  std::vector<uint64_t> raw_histogram;

  bool accepted() const { return verdict.accepted(); }
};

// Re-verifies an entire run from public data. Mirrors every check the live
// verifier performs (Lines 3, 5-6, 12-13 of Figure 2) and recomputes the
// published histogram.
template <PrimeOrderGroup G>
AuditReport AuditTranscript(const PublicTranscript<G>& t, const ProtocolConfig& config,
                            const Pedersen<G>& ped, ThreadPool* pool = nullptr) {
  AuditReport report;

  if (auto error = config.Validate(); error.has_value()) {
    report.verdict = Verdict::Reject(VerdictCode::kInvalidConfig, kNoParty, error->Render());
    return report;
  }

  PublicVerifier<G> verifier(config, ped);

  // The auditor re-checks client uploads through whichever VerifyBackend the
  // config selects (src/verify/factory.h) -- the same pipeline the live run
  // used. The report's commitment products double as the client half of the
  // Eq. 10 check below: the audit path has no private share-consistency
  // filter, so they always cover exactly the accepted set.
  VerifyReport<G> validation = verifier.ValidateClientsReport(t.client_uploads, pool);
  report.accepted_clients = validation.accepted;

  const size_t bins = config.num_bins;
  using S = typename G::Scalar;
  std::vector<S> totals(bins, S::Zero());

  // Eq. 10 (CheckFinalBin) indexes public_bits[k][bin][j] for every bin and
  // coin, so an in-memory transcript must have the full (bins x nb) shape.
  const uint64_t nb = config.NumCoins();
  bool shape_ok = t.prover_coins.size() == config.num_provers &&
                  t.prover_outputs.size() == config.num_provers &&
                  t.public_bits.size() == config.num_provers;
  for (size_t k = 0; shape_ok && k < config.num_provers; ++k) {
    shape_ok = t.public_bits[k].size() == bins;
    for (size_t bin = 0; shape_ok && bin < bins; ++bin) {
      shape_ok = t.public_bits[k][bin].size() == nb;
    }
  }
  if (!shape_ok) {
    report.verdict =
        Verdict::Reject(VerdictCode::kMalformedMessage, kNoParty, "transcript shape mismatch");
    return report;
  }

  for (size_t k = 0; k < config.num_provers; ++k) {
    if (!verifier.CheckCoinProofs(k, t.prover_coins[k], pool)) {
      report.verdict = Verdict::Reject(VerdictCode::kCoinProofInvalid, k,
                                       "audit: coin proof invalid");
      return report;
    }
    bool final_ok = validation.has_products()
                        ? verifier.CheckFinalWithProducts(validation.commitment_products[k],
                                                          t.prover_coins[k], t.public_bits[k],
                                                          t.prover_outputs[k])
                        : verifier.CheckFinal(k, t.client_uploads, report.accepted_clients,
                                              t.prover_coins[k], t.public_bits[k],
                                              t.prover_outputs[k]);
    if (!final_ok) {
      report.verdict =
          Verdict::Reject(VerdictCode::kFinalCheckFailed, k, "audit: Eq. 10 failed");
      return report;
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      totals[bin] += t.prover_outputs[k].y[bin];
    }
  }

  report.raw_histogram.resize(bins);
  for (size_t bin = 0; bin < bins; ++bin) {
    auto v = totals[bin].ToU64();
    if (!v.has_value()) {
      report.verdict = Verdict::Reject(VerdictCode::kMalformedMessage, kNoParty,
                                       "audit: aggregate out of range");
      return report;
    }
    report.raw_histogram[bin] = *v;
  }
  report.verdict = Verdict::Accept();
  return report;
}

}  // namespace vdp

#endif  // SRC_CORE_AUDIT_H_
