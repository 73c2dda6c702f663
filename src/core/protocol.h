// End-to-end orchestration of Pi_Bin: clients -> provers -> public verifier,
// over in-memory channels, with per-stage timing (the rows of Table 1).
//
// The trusted-curator model is K = 1; the client-server MPC model is K >= 2.
// The driver is deliberately the *only* place where messages flow between
// parties, so tests can substitute adversarial provers/clients and observe
// exactly what a real deployment's network would carry.
#ifndef SRC_CORE_PROTOCOL_H_
#define SRC_CORE_PROTOCOL_H_

#include <memory>
#include <vector>

#include "src/batch/batch_openings.h"
#include "src/common/timer.h"
#include "src/core/prover.h"
#include "src/core/verifier.h"

namespace vdp {

// Wall-clock cost of each protocol stage, accumulated across provers.
// Columns of Table 1: Sigma-proof, Sigma-verification, Morra, Aggregation,
// Check (client validation is reported separately; it is Figure 4's subject).
struct StageTimings {
  double client_validate_ms = 0;
  double sigma_prove_ms = 0;
  double sigma_verify_ms = 0;
  double morra_ms = 0;
  double aggregate_ms = 0;
  double check_ms = 0;

  double TotalMs() const {
    return client_validate_ms + sigma_prove_ms + sigma_verify_ms + morra_ms + aggregate_ms +
           check_ms;
  }
};

struct ProtocolResult {
  Verdict verdict;
  // Raw per-bin outputs y_m = sum_k y_{k,m} (carry the public +K*nb/2 offset).
  std::vector<uint64_t> raw_histogram;
  // Debiased point estimates y_m - K*nb/2.
  std::vector<double> histogram;
  std::vector<size_t> accepted_clients;
  StageTimings timings;

  bool accepted() const { return verdict.accepted(); }
};

// Everything that crossed the public channel during one run; persist it and
// any bystander can re-verify with AuditTranscript (core/audit.h).
template <PrimeOrderGroup G>
struct PublicTranscript {
  std::vector<ClientUploadMsg<G>> client_uploads;
  std::vector<ProverCoinsMsg<G>> prover_coins;              // [K]
  std::vector<std::vector<std::vector<bool>>> public_bits;  // [K][M][nb]
  std::vector<ProverOutputMsg<G>> prover_outputs;           // [K]
};

// Runs Morra between one prover and the public verifier to produce
// bins * nb public bits. Returns empty bits on abort. The bits do not depend
// on `pool`.
template <PrimeOrderGroup G>
std::vector<std::vector<bool>> RunProverMorra(Prover<G>& prover, const Pedersen<G>& ped,
                                              const ProtocolConfig& config, SecureRng& vrf_rng,
                                              ThreadPool* pool = nullptr) {
  const size_t bins = config.num_bins;
  const size_t nb = config.NumCoins();
  const size_t total = bins * nb;

  std::vector<bool> flat;
  if (config.morra_mode == MorraMode::kPedersen) {
    auto prover_party = prover.MakeMorraParty();
    MorraParty<G> verifier_party(vrf_rng.Fork("morra-verifier"));
    std::vector<MorraParty<G>*> parties = {prover_party.get(), &verifier_party};
    auto outcome = RunMorra(parties, total, ped, pool);
    if (outcome.aborted) {
      return {};
    }
    flat = std::move(outcome.coins);
  } else {
    std::vector<SeedMorraParty> parties;
    parties.push_back(prover.MakeSeedMorraParty());
    parties.push_back(SeedMorraParty{vrf_rng.Fork("seed-morra-verifier"), false, false});
    auto outcome = RunSeedMorra(parties, total);
    if (outcome.aborted) {
      return {};
    }
    flat = std::move(outcome.coins);
  }

  std::vector<std::vector<bool>> bits(bins);
  for (size_t bin = 0; bin < bins; ++bin) {
    bits[bin].assign(flat.begin() + static_cast<long>(bin * nb),
                     flat.begin() + static_cast<long>((bin + 1) * nb));
  }
  return bits;
}

// Prover-side share consistency: the clients in `accepted` whose private
// share to every prover opens their public commitments. A client that fails
// is excluded (publicly attributable, since the prover can exhibit the
// mismatching share). Each prover checks all its shares with one batched
// opening check (src/batch/batch_openings.h); only when a batch fails, or a
// share has the wrong shape, does the per-client ClientShareConsistent loop
// run, to find whom to exclude. Both paths give the same set.
template <PrimeOrderGroup G>
std::vector<size_t> ConsistentClients(const Pedersen<G>& ped,
                                      const std::vector<ClientBundle<G>>& clients,
                                      const std::vector<ClientUploadMsg<G>>& uploads,
                                      const std::vector<size_t>& accepted,
                                      const std::vector<Prover<G>*>& provers, ThreadPool* pool) {
  bool all_ok = true;
  for (const Prover<G>* prover : provers) {
    const size_t k = prover->index();
    // The batch indexes openings as (client, bin) pairs, so it needs every
    // share to have the shape of the first.
    const size_t bins = accepted.empty() ? 0 : uploads[accepted[0]].commitments[k].size();
    for (size_t idx : accepted) {
      const ClientShareMsg<G>& share = clients[idx].shares[k];
      all_ok = all_ok && uploads[idx].commitments[k].size() == bins &&
               share.values.size() == bins && share.randomness.size() == bins;
    }
    all_ok = all_ok && BatchOpeningsValid(
                           ped, "vdp/client-shares", accepted.size() * bins,
                           [&](size_t i) {
                             const size_t idx = accepted[i / bins];
                             const ClientShareMsg<G>& share = clients[idx].shares[k];
                             return OpeningRef<G>{uploads[idx].commitments[k][i % bins],
                                                  share.values[i % bins],
                                                  share.randomness[i % bins]};
                           },
                           pool);
    if (!all_ok) {
      break;
    }
  }
  if (all_ok) {
    return accepted;
  }

  std::vector<size_t> consistent;
  for (size_t idx : accepted) {
    bool ok = true;
    for (const Prover<G>* prover : provers) {
      const auto& share = clients[idx].shares[prover->index()];
      if (!ClientShareConsistent(share, uploads[idx].commitments[prover->index()], ped)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      consistent.push_back(idx);
    }
  }
  return consistent;
}

template <PrimeOrderGroup G>
ProtocolResult RunProtocol(const ProtocolConfig& config, const Pedersen<G>& ped,
                           const std::vector<ClientBundle<G>>& clients,
                           const std::vector<Prover<G>*>& provers, SecureRng& verifier_rng,
                           ThreadPool* pool = nullptr,
                           PublicTranscript<G>* record = nullptr) {
  ProtocolResult result;

  // A nonsensical configuration is rejected with attribution before any
  // cryptographic work (and before the backend factory would throw).
  if (auto error = config.Validate(); error.has_value()) {
    result.verdict = Verdict::Reject(VerdictCode::kInvalidConfig, kNoParty, error->Render());
    return result;
  }

  PublicVerifier<G> verifier(config, ped);
  Stopwatch timer;

  // --- Line 3: public client validation ---------------------------------
  std::vector<ClientUploadMsg<G>> uploads;
  uploads.reserve(clients.size());
  for (const auto& c : clients) {
    uploads.push_back(c.upload);
  }
  if (record != nullptr) {
    record->client_uploads = uploads;
  }
  timer.Reset();
  // Validation runs through whichever VerifyBackend the config selects
  // (src/verify/factory.h); every backend returns the same structured
  // report. Its per-prover/per-bin commitment products are exactly the
  // client half of the Eq. 10 product, so the final check below can reuse
  // them instead of re-multiplying every accepted upload.
  VerifyReport<G> report = verifier.ValidateClientsReport(uploads, pool);
  const std::vector<size_t>& accepted = report.accepted;

  const std::vector<size_t> consistent =
      ConsistentClients(ped, clients, uploads, accepted, provers, pool);
  result.accepted_clients = consistent;
  result.timings.client_validate_ms = timer.ElapsedMillis();

  // --- Line 2/10 prep: provers ingest accepted shares -------------------
  timer.Reset();
  for (Prover<G>* prover : provers) {
    std::vector<ClientShareMsg<G>> shares;
    shares.reserve(consistent.size());
    for (size_t idx : consistent) {
      shares.push_back(clients[idx].shares[prover->index()]);
    }
    prover->LoadClientShares(shares);
  }
  double load_ms = timer.ElapsedMillis();

  // --- Lines 4-13 per prover --------------------------------------------
  const size_t bins = config.num_bins;
  std::vector<uint64_t> raw(bins, 0);
  using S = typename G::Scalar;
  std::vector<S> totals(bins, S::Zero());

  for (Prover<G>* prover : provers) {
    // Line 4 + Fiat-Shamir proofs.
    timer.Reset();
    ProverCoinsMsg<G> coins = prover->CommitCoins(pool);
    result.timings.sigma_prove_ms += timer.ElapsedMillis();

    // Lines 5-6.
    timer.Reset();
    bool proofs_ok = verifier.CheckCoinProofs(prover->index(), coins, pool);
    result.timings.sigma_verify_ms += timer.ElapsedMillis();
    if (!proofs_ok) {
      result.verdict = Verdict::Reject(VerdictCode::kCoinProofInvalid, prover->index(),
                                       "private coin commitment failed O_OR");
      return result;
    }

    // Lines 7-8.
    timer.Reset();
    auto bits = RunProverMorra(*prover, ped, config, verifier_rng, pool);
    result.timings.morra_ms += timer.ElapsedMillis();
    if (bits.empty()) {
      result.verdict = Verdict::Reject(VerdictCode::kMorraAborted, prover->index(),
                                       "public coin generation aborted");
      return result;
    }

    // Lines 9-11.
    timer.Reset();
    prover->ReceivePublicCoins(bits);
    ProverOutputMsg<G> output = prover->ComputeOutput();
    result.timings.aggregate_ms += timer.ElapsedMillis();
    if (output.y.size() != bins || output.z.size() != bins) {
      result.verdict = Verdict::Reject(VerdictCode::kMalformedMessage, prover->index(),
                                       "output shape mismatch");
      return result;
    }

    if (record != nullptr) {
      record->prover_coins.push_back(coins);
      record->public_bits.push_back(bits);
      record->prover_outputs.push_back(output);
    }

    // Lines 12-13. The report's products cover the *accepted* set; they are
    // only reusable when no accepted client was dropped by the private
    // share-consistency filter above (the common case -- that filter only
    // fires on clients who sent garbage to a prover but valid broadcasts).
    timer.Reset();
    bool final_ok =
        (report.has_products() && consistent.size() == report.accepted.size())
            ? verifier.CheckFinalWithProducts(report.commitment_products[prover->index()],
                                              coins, bits, output)
            : verifier.CheckFinal(prover->index(), uploads, consistent, coins, bits, output);
    result.timings.check_ms += timer.ElapsedMillis();
    if (!final_ok) {
      result.verdict = Verdict::Reject(VerdictCode::kFinalCheckFailed, prover->index(),
                                       "commitment product does not open to (y_k, z_k)");
      return result;
    }

    for (size_t bin = 0; bin < bins; ++bin) {
      totals[bin] += output.y[bin];
    }
  }
  result.timings.aggregate_ms += load_ms;

  // --- Publish ------------------------------------------------------------
  result.raw_histogram.resize(bins);
  result.histogram.resize(bins);
  for (size_t bin = 0; bin < bins; ++bin) {
    auto as_u64 = totals[bin].ToU64();
    if (!as_u64.has_value()) {
      result.verdict = Verdict::Reject(VerdictCode::kMalformedMessage, kNoParty,
                                       "aggregate output out of range");
      return result;
    }
    result.raw_histogram[bin] = *as_u64;
    result.histogram[bin] = static_cast<double>(*as_u64) - config.ExpectedOffset();
  }
  result.verdict = Verdict::Accept();
  return result;
}

// Convenience wrapper: honest clients + honest provers from plaintext values.
// For M == 1, each value is a bit; for M > 1, each value is a bin choice.
template <PrimeOrderGroup G>
ProtocolResult RunHonestProtocol(const ProtocolConfig& config,
                                 const std::vector<uint32_t>& client_values, SecureRng& rng,
                                 ThreadPool* pool = nullptr) {
  Pedersen<G> ped;
  std::vector<ClientBundle<G>> clients;
  clients.reserve(client_values.size());
  SecureRng client_rng = rng.Fork("clients");
  for (size_t i = 0; i < client_values.size(); ++i) {
    clients.push_back(MakeClientBundle(client_values[i], i, config, ped, client_rng));
  }
  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped,
                                                rng.Fork("prover-" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng verifier_rng = rng.Fork("verifier");
  return RunProtocol(config, ped, clients, provers, verifier_rng, pool);
}

}  // namespace vdp

#endif  // SRC_CORE_PROTOCOL_H_
