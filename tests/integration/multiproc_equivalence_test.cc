// Cross-mode equivalence: monolithic, in-process-sharded, and multi-process
// verification (the remote backend on a loopback verify_server fleet) are
// three executions of the same abstract verifier, so on the same seeded
// transcript they must produce bit-identical accept sets, Eq. 10 commitment
// products, and audit verdicts -- including on transcripts that contain
// invalid proofs and on transcripts tampered after the run.
#include <gtest/gtest.h>

#include "src/core/audit.h"
#include "src/net/server_process.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;
using Element = G::Element;

ProtocolConfig BaseConfig() {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31
  config.num_provers = 2;
  config.num_bins = 3;
  config.session_id = "multiproc-equivalence";
  config.batch_verify = true;
  return config;
}

// The three configurations under comparison. All share the session id, so
// every Fiat-Shamir transcript (and hence every decision) must coincide.
ProtocolConfig Monolithic() {
  return BaseConfig();
}
ProtocolConfig InProcessSharded() {
  ProtocolConfig config = BaseConfig();
  config.num_verify_shards = 5;
  return config;
}
ProtocolConfig MultiProcess() {
  ProtocolConfig config = BaseConfig();
  config.num_verify_shards = 5;
  const net::LoopbackFleet& fleet = net::SharedLoopbackFleet(3);
  EXPECT_EQ(fleet.servers().size(), 3u);
  fleet.ApplyTo(&config);
  return config;
}

// A population with invalid proofs sprinkled in: a bad OR proof, a
// malformed shape, and a tampered sub-challenge, spread across shards.
std::vector<ClientBundle<G>> MakeClients(const ProtocolConfig& config,
                                         const Pedersen<G>& ped, size_t n) {
  SecureRng rng("multiproc-clients");
  std::vector<ClientBundle<G>> clients;
  clients.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    clients.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, ped, rng));
  }
  clients[3].upload.bin_proofs[0].z0 += S::One();
  clients[n / 2].upload.commitments.clear();
  clients[n - 2].upload.bin_proofs[1].e1 += S::One();
  return clients;
}

std::vector<std::vector<Element>> DirectProducts(const ProtocolConfig& config,
                                                 const std::vector<ClientUploadMsg<G>>& uploads,
                                                 const std::vector<size_t>& accepted) {
  std::vector<std::vector<Element>> products(
      config.num_provers, std::vector<Element>(config.num_bins, G::Identity()));
  for (size_t idx : accepted) {
    for (size_t k = 0; k < config.num_provers; ++k) {
      for (size_t m = 0; m < config.num_bins; ++m) {
        products[k][m] = G::Mul(products[k][m], uploads[idx].commitments[k][m]);
      }
    }
  }
  return products;
}

TEST(MultiprocEquivalence, ValidationDecisionsAndProductsAreBitIdentical) {
  Pedersen<G> ped;
  auto clients = MakeClients(BaseConfig(), ped, 24);
  std::vector<ClientUploadMsg<G>> uploads;
  for (const auto& c : clients) {
    uploads.push_back(c.upload);
  }

  PublicVerifier<G> mono(Monolithic(), ped);
  PublicVerifier<G> sharded(InProcessSharded(), ped);
  PublicVerifier<G> multiproc(MultiProcess(), ped);

  std::vector<std::string> mono_reasons;
  std::vector<std::string> sharded_reasons;
  std::vector<std::string> multiproc_reasons;
  auto mono_accepted = mono.ValidateClients(uploads, &mono_reasons);
  auto sharded_accepted = sharded.ValidateClients(uploads, &sharded_reasons);
  auto multiproc_accepted = multiproc.ValidateClients(uploads, &multiproc_reasons);

  EXPECT_EQ(mono_accepted.size(), uploads.size() - 3);
  EXPECT_EQ(mono_accepted, sharded_accepted);
  EXPECT_EQ(mono_accepted, multiproc_accepted);
  EXPECT_EQ(mono_reasons, sharded_reasons);
  EXPECT_EQ(mono_reasons, multiproc_reasons);

  // Products: the multi-process report's Eq. 10 client products must equal
  // both the in-process sharded ones and the direct per-upload product.
  auto sharded_verdict = sharded.ValidateClientsReport(uploads);
  auto multiproc_verdict = multiproc.ValidateClientsReport(uploads);
  EXPECT_EQ(sharded_verdict.backend, "sharded");
  EXPECT_EQ(multiproc_verdict.backend, "remote");
  auto direct = DirectProducts(BaseConfig(), uploads, mono_accepted);
  ASSERT_EQ(multiproc_verdict.commitment_products.size(), direct.size());
  for (size_t k = 0; k < direct.size(); ++k) {
    for (size_t m = 0; m < direct[k].size(); ++m) {
      EXPECT_TRUE(multiproc_verdict.commitment_products[k][m] ==
                  sharded_verdict.commitment_products[k][m]);
      EXPECT_TRUE(multiproc_verdict.commitment_products[k][m] == direct[k][m]);
    }
  }
  EXPECT_EQ(multiproc_verdict.accepted, sharded_verdict.accepted);
  EXPECT_EQ(multiproc_verdict.rejections, sharded_verdict.rejections);
  EXPECT_EQ(multiproc_verdict.RenderedReasons(), mono_reasons);
}

TEST(MultiprocEquivalence, EndToEndRunAndAuditAgreeAcrossAllThreeModes) {
  Pedersen<G> ped;
  ProtocolConfig run_config = MultiProcess();
  auto clients = MakeClients(run_config, ped, 24);

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  SecureRng rng("multiproc-e2e");
  for (size_t k = 0; k < run_config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, run_config, ped,
                                                rng.Fork("prover-" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng verifier_rng = rng.Fork("verifier");

  // The live run itself goes through the multi-process pipeline.
  PublicTranscript<G> transcript;
  auto result = RunProtocol(run_config, ped, clients, provers, verifier_rng, nullptr,
                            &transcript);
  ASSERT_TRUE(result.accepted()) << result.verdict.detail;
  EXPECT_EQ(result.accepted_clients.size(), clients.size() - 3);

  // Independent audits of the recorded transcript under all three modes.
  auto mono_report = AuditTranscript(transcript, Monolithic(), ped);
  auto sharded_report = AuditTranscript(transcript, InProcessSharded(), ped);
  auto multiproc_report = AuditTranscript(transcript, MultiProcess(), ped);

  EXPECT_TRUE(mono_report.accepted()) << mono_report.verdict.detail;
  EXPECT_TRUE(sharded_report.accepted()) << sharded_report.verdict.detail;
  EXPECT_TRUE(multiproc_report.accepted()) << multiproc_report.verdict.detail;

  EXPECT_EQ(mono_report.accepted_clients, result.accepted_clients);
  EXPECT_EQ(sharded_report.accepted_clients, mono_report.accepted_clients);
  EXPECT_EQ(multiproc_report.accepted_clients, mono_report.accepted_clients);
  EXPECT_EQ(sharded_report.raw_histogram, mono_report.raw_histogram);
  EXPECT_EQ(multiproc_report.raw_histogram, mono_report.raw_histogram);
  EXPECT_EQ(mono_report.raw_histogram, result.raw_histogram);
}

TEST(MultiprocEquivalence, TamperedTranscriptRejectsIdenticallyInAllThreeModes) {
  Pedersen<G> ped;
  ProtocolConfig run_config = Monolithic();
  auto clients = MakeClients(run_config, ped, 24);

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  SecureRng rng("multiproc-tamper");
  for (size_t k = 0; k < run_config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, run_config, ped,
                                                rng.Fork("prover-" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng verifier_rng = rng.Fork("verifier");
  PublicTranscript<G> transcript;
  auto result = RunProtocol(run_config, ped, clients, provers, verifier_rng, nullptr,
                            &transcript);
  ASSERT_TRUE(result.accepted()) << result.verdict.detail;

  // Corrupt an upload that WAS accepted during the live run: every auditor
  // must now drop that client, find the Eq. 10 product short by its
  // commitments, and reject -- with the same culprit and code.
  transcript.client_uploads[7].bin_proofs[2].z1 += S::One();

  auto mono_report = AuditTranscript(transcript, Monolithic(), ped);
  auto sharded_report = AuditTranscript(transcript, InProcessSharded(), ped);
  auto multiproc_report = AuditTranscript(transcript, MultiProcess(), ped);

  EXPECT_FALSE(mono_report.accepted());
  EXPECT_FALSE(sharded_report.accepted());
  EXPECT_FALSE(multiproc_report.accepted());
  EXPECT_EQ(mono_report.verdict.code, sharded_report.verdict.code);
  EXPECT_EQ(mono_report.verdict.code, multiproc_report.verdict.code);
  EXPECT_EQ(mono_report.verdict.cheating_prover, sharded_report.verdict.cheating_prover);
  EXPECT_EQ(mono_report.verdict.cheating_prover, multiproc_report.verdict.cheating_prover);
  EXPECT_EQ(mono_report.accepted_clients, sharded_report.accepted_clients);
  EXPECT_EQ(mono_report.accepted_clients, multiproc_report.accepted_clients);
}

}  // namespace
}  // namespace vdp
