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

namespace audit_internal {

// DeserializeTranscript with the element decode on `pool` (inline when
// null). Two passes: framing on the calling thread reads every count
// through Reader::Count with the smallest strict encoding of one entry -- so
// the containers it sizes stay within a small multiple of the input --
// decodes the scalars, sizes every container and collects each element's
// blob and slot; then one ElementBlobs::Decode decodes the uploads' elements
// and every coin's (c, a0, a1) into those slots. The transcript parses
// exactly when each element would have decoded one at a time.
template <PrimeOrderGroup G>
std::optional<PublicTranscript<G>> DeserializeTranscript(BytesView data, ThreadPool* pool) {
  constexpr size_t kMinUploadBytes = Reader::kMinBlobBytes + ClientUploadMsg<G>::kMinEncodedBytes;
  constexpr size_t kMinProverBytes =  // bins, output
      4 + Reader::kMinBlobBytes + ProverOutputMsg<G>::kMinEncodedBytes;
  constexpr size_t kMinBinBytes = 4;  // nb
  constexpr size_t kMinCoinBytes =    // c, proof, bit
      kElementBlobBytes<G> + Reader::kMinBlobBytes + OrProof<G>::kMinEncodedBytes + 1;
  Reader r(data);
  PublicTranscript<G> t;
  ElementBlobs<G> elements;
  auto n = r.Count(kMinUploadBytes);
  if (!n) {
    return std::nullopt;
  }
  t.client_uploads.resize(*n);
  for (auto& upload : t.client_uploads) {
    auto blob = r.BlobView();
    if (!blob || !upload.Frame(*blob, &elements)) {
      return std::nullopt;
    }
  }
  auto k = r.Count(kMinProverBytes);
  if (!k) {
    return std::nullopt;
  }
  t.prover_coins.resize(*k);
  t.public_bits.resize(*k);
  t.prover_outputs.resize(*k);
  for (uint32_t p = 0; p < *k; ++p) {
    auto bins = r.Count(kMinBinBytes);
    if (!bins) {
      return std::nullopt;
    }
    ProverCoinsMsg<G>& coins = t.prover_coins[p];
    std::vector<std::vector<bool>>& bits = t.public_bits[p];
    coins.coin_commitments.resize(*bins);
    coins.coin_proofs.resize(*bins);
    bits.resize(*bins);
    for (uint32_t bin = 0; bin < *bins; ++bin) {
      auto nb = r.Count(kMinCoinBytes);
      if (!nb) {
        return std::nullopt;
      }
      coins.coin_commitments[bin].resize(*nb);
      coins.coin_proofs[bin].resize(*nb);
      bits[bin].resize(*nb);
      for (uint32_t j = 0; j < *nb; ++j) {
        auto cblob = r.BlobView();
        auto pblob = r.BlobView();
        auto bit = r.U8();
        if (!cblob || !pblob || !bit || *bit > 1) {
          return std::nullopt;
        }
        elements.Add(*cblob, &coins.coin_commitments[bin][j]);
        if (!coins.coin_proofs[bin][j].Frame(*pblob, &elements)) {
          return std::nullopt;
        }
        bits[bin][j] = *bit == 1;
      }
    }
    auto oblob = r.BlobView();
    if (!oblob) {
      return std::nullopt;
    }
    auto output = ProverOutputMsg<G>::Deserialize(*oblob);
    if (!output) {
      return std::nullopt;
    }
    t.prover_outputs[p] = std::move(*output);
  }
  if (!r.AtEnd() || !elements.Decode(pool)) {
    return std::nullopt;
  }
  return t;
}

}  // namespace audit_internal

// Parses a published transcript, decoding its group elements on
// GlobalPool() (see ElementBlobs::DecodeEach: not from inside a GlobalPool
// task).
template <PrimeOrderGroup G>
std::optional<PublicTranscript<G>> DeserializeTranscript(BytesView data) {
  return audit_internal::DeserializeTranscript<G>(data, &GlobalPool());
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
  // used. The report's commitment products (always present: products are
  // requested, and the combiner fills all K x M) double as the client half
  // of the Eq. 10 check below: the audit path has no private
  // share-consistency filter, so they always cover exactly the accepted set.
  VerifyReport<G> validation = verifier.ValidateClientsReport(t.client_uploads, pool);
  report.accepted_clients = validation.accepted;

  const size_t bins = config.num_bins;
  using S = typename G::Scalar;
  std::vector<S> totals(bins, S::Zero());

  // An in-memory transcript must have the full (bins x nb) shape of public
  // bits; a short row is refused here as malformed, before Eq. 10 would
  // reject it as a failed check.
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
    if (!verifier.CheckFinalWithProducts(validation.commitment_products[k], t.prover_coins[k],
                                         t.public_bits[k], t.prover_outputs[k])) {
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
