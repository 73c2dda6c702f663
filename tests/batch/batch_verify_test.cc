// Soundness and agreement tests for the RLC batch verifiers: a batch with a
// single corrupted transcript must reject, and the batch verdict must agree
// with the per-proof oracle on every accept/reject decision.
#include <gtest/gtest.h>

#include "src/batch/batch_or_proof.h"
#include "src/core/audit.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

std::vector<OrInstance<G>> MakeValidOrBatch(const Pedersen<G>& ped, size_t n, SecureRng& rng) {
  std::vector<OrInstance<G>> instances;
  instances.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int bit = static_cast<int>(i % 2);
    S r = S::Random(rng);
    auto c = ped.Commit(S::FromU64(static_cast<uint64_t>(bit)), r);
    std::string context = "batch-test/" + std::to_string(i);
    instances.push_back({c, OrProve(ped, c, bit, r, rng, context), context});
  }
  return instances;
}

// The per-proof oracle the batch verifier must agree with.
bool PerProofVerdict(const Pedersen<G>& ped, const std::vector<OrInstance<G>>& instances) {
  for (const auto& inst : instances) {
    if (!OrVerify(ped, inst.c, inst.proof, inst.context)) {
      return false;
    }
  }
  return true;
}

TEST(BatchOrVerifyTest, EmptyBatchAccepts) {
  Pedersen<G> ped;
  EXPECT_TRUE(BatchOrVerify(ped, std::vector<OrInstance<G>>{}));
}

TEST(BatchOrVerifyTest, ValidBatchesAcceptAcrossSizes) {
  Pedersen<G> ped;
  SecureRng rng("batch-or-valid");
  // Spans the windowed-NAF path, the Pippenger path, and the dispatch edge.
  for (size_t n : {1u, 2u, 17u, 50u, 200u}) {
    auto instances = MakeValidOrBatch(ped, n, rng);
    EXPECT_TRUE(BatchOrVerify(ped, instances)) << "n=" << n;
    EXPECT_TRUE(PerProofVerdict(ped, instances));
  }
}

TEST(BatchOrVerifyTest, PoolMatchesSerial) {
  Pedersen<G> ped;
  SecureRng rng("batch-or-pool");
  auto instances = MakeValidOrBatch(ped, 64, rng);
  ThreadPool pool(3);
  EXPECT_TRUE(BatchOrVerify(ped, instances, &pool));
}

// The combiner transcript streams each proof's encoding in pieces; its
// digest must be the one of the joined Serialize bytes, so the combiners do
// not change.
TEST(CombinerBinderTest, StreamedProofsBindLikeTheirSerializedBytes) {
  Pedersen<G> ped;
  SecureRng rng("combiner-pieces");
  const auto instances = MakeValidOrBatch(ped, 5, rng);
  CombinerBinder joined("test/binder", instances.size());
  CombinerBinder streamed("test/binder", instances.size());
  for (const auto& inst : instances) {
    const auto enc = EncodeAll<G>({inst.proof.a0, inst.proof.a1});
    const Bytes bytes = inst.proof.Serialize(enc[0], enc[1]);
    ASSERT_EQ(OrProof<G>::SerializedSize(enc[0].size(), enc[1].size()), bytes.size());
    joined.Add(bytes);
    streamed.AddPieces(bytes.size(),
                       [&](auto sink) { inst.proof.SerializeTo(enc[0], enc[1], sink); });
  }
  SecureRng a = joined.Fork();
  SecureRng b = streamed.Fork();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

// SampleCombiner reads the same 16 stream bytes per draw as RandomBytes(16).
TEST(CombinerBinderTest, SampleCombinerReadsSixteenStreamBytes) {
  SecureRng a("combiner-sample");
  SecureRng b("combiner-sample");
  for (int i = 0; i < 64; ++i) {
    const Bytes bytes = b.RandomBytes(16);
    EXPECT_EQ(SampleCombiner<S>(a), S::FromBytesWide(bytes));
  }
}

// The headline soundness test: 1,000 valid proofs with exactly one corrupted
// transcript must be rejected, for every corruption mode, and the verdict
// must agree with the per-proof oracle.
TEST(BatchOrVerifyTest, ThousandProofsOneCorruptedRejected) {
  Pedersen<G> ped;
  SecureRng rng("batch-or-1000");
  auto valid = MakeValidOrBatch(ped, 1000, rng);
  ASSERT_TRUE(BatchOrVerify(ped, valid));

  const size_t victim = 517;
  struct Corruption {
    const char* name;
    void (*apply)(OrProof<G>&);
  };
  const Corruption corruptions[] = {
      {"wrong challenge (split broken)", [](OrProof<G>& p) { p.e0 += S::One(); }},
      {"wrong challenge (split preserved)",
       [](OrProof<G>& p) {
         p.e0 += S::One();
         p.e1 -= S::One();
       }},
      {"wrong response z0", [](OrProof<G>& p) { p.z0 += S::One(); }},
      {"wrong response z1", [](OrProof<G>& p) { p.z1 += S::One(); }},
      {"swapped commitments", [](OrProof<G>& p) { std::swap(p.a0, p.a1); }},
  };
  for (const auto& corruption : corruptions) {
    auto tampered = valid;
    corruption.apply(tampered[victim].proof);
    EXPECT_FALSE(BatchOrVerify(ped, tampered)) << corruption.name;
    EXPECT_FALSE(PerProofVerdict(ped, tampered)) << corruption.name;
  }
}

TEST(BatchOrVerifyTest, WrongCommitmentRejected) {
  Pedersen<G> ped;
  SecureRng rng("batch-or-wrongc");
  auto instances = MakeValidOrBatch(ped, 20, rng);
  instances[7].c = G::Mul(instances[7].c, G::Generator());
  EXPECT_FALSE(BatchOrVerify(ped, instances));
  EXPECT_FALSE(PerProofVerdict(ped, instances));
}

TEST(BatchOrVerifyTest, WrongContextRejected) {
  Pedersen<G> ped;
  SecureRng rng("batch-or-ctx");
  auto instances = MakeValidOrBatch(ped, 20, rng);
  instances[3].context = "some-other-session";
  EXPECT_FALSE(BatchOrVerify(ped, instances));
  EXPECT_FALSE(PerProofVerdict(ped, instances));
}

TEST(BatchOrVerifyTest, NonBitCommitmentRejected) {
  // A commitment to 2 with honest-prover-shaped proofs cannot survive.
  Pedersen<G> ped;
  SecureRng rng("batch-or-nonbit");
  auto instances = MakeValidOrBatch(ped, 20, rng);
  S r = S::Random(rng);
  auto c = ped.Commit(S::FromU64(2), r);
  instances[11] = {c, OrProve(ped, c, 1, r, rng, instances[11].context), instances[11].context};
  EXPECT_FALSE(BatchOrVerify(ped, instances));
  EXPECT_FALSE(PerProofVerdict(ped, instances));
}

// --- integration with the public verifier ----------------------------------

ProtocolConfig BatchConfig(size_t provers, size_t bins) {
  ProtocolConfig config;
  config.epsilon = 1.0;
  config.num_provers = provers;
  config.num_bins = bins;
  config.session_id = "batch-verify-test";
  config.batch_verify = true;
  return config;
}

TEST(BatchVerifierIntegrationTest, ValidateClientsMatchesPerProofOnMixedBatch) {
  SecureRng rng("batch-validate");
  auto batch_config = BatchConfig(2, 3);
  auto plain_config = batch_config;
  plain_config.batch_verify = false;
  Pedersen<G> ped;

  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 12; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % 3), i, batch_config, ped, rng).upload);
  }
  // Client 4: corrupted OR proof. Client 9: malformed shape.
  uploads[4].bin_proofs[1].z0 += S::One();
  uploads[9].commitments.pop_back();

  PublicVerifier<G> batch_verifier(batch_config, ped);
  PublicVerifier<G> plain_verifier(plain_config, ped);
  std::vector<std::string> batch_reasons;
  std::vector<std::string> plain_reasons;
  auto batch_accepted = batch_verifier.ValidateClients(uploads, &batch_reasons);
  auto plain_accepted = plain_verifier.ValidateClients(uploads, &plain_reasons);
  EXPECT_EQ(batch_accepted, plain_accepted);
  EXPECT_EQ(batch_reasons, plain_reasons);
  EXPECT_EQ(batch_accepted, (std::vector<size_t>{0, 1, 2, 3, 5, 6, 7, 8, 10, 11}));
}

TEST(BatchVerifierIntegrationTest, ValidateClientsAllHonest) {
  SecureRng rng("batch-validate-honest");
  auto config = BatchConfig(2, 2);
  Pedersen<G> ped;
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 8; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % 2), i, config, ped, rng).upload);
  }
  PublicVerifier<G> verifier(config, ped);
  EXPECT_EQ(verifier.ValidateClients(uploads).size(), 8u);
}

// The per-coin oracle for CheckCoinProofs: OrVerify on every coin under the
// context its prover bound it to.
bool PerCoinVerdict(const Pedersen<G>& ped, const ProtocolConfig& config, size_t prover_index,
                    const ProverCoinsMsg<G>& coins) {
  for (size_t bin = 0; bin < coins.coin_commitments.size(); ++bin) {
    const std::string context = CoinProofContext(config.session_id, prover_index, bin);
    for (size_t j = 0; j < coins.coin_commitments[bin].size(); ++j) {
      if (!OrVerify(ped, coins.coin_commitments[bin][j], coins.coin_proofs[bin][j],
                    context + "/" + std::to_string(j))) {
        return false;
      }
    }
  }
  return true;
}

// Coin proofs take one RLC check whatever batch_verify says; its verdict
// must be per-coin OrVerify's.
TEST(BatchVerifierIntegrationTest, CheckCoinProofsMatchesPerProof) {
  SecureRng rng("batch-coins");
  auto config = BatchConfig(1, 2);
  Pedersen<G> ped;
  Prover<G> prover(0, config, ped, rng.Fork("prover"));
  const ProverCoinsMsg<G> coins = prover.CommitCoins();

  auto tampered = coins;
  tampered.coin_proofs[1][2].e1 += S::One();
  auto swapped = coins;
  std::swap(swapped.coin_proofs[0][0], swapped.coin_proofs[0][1]);
  // A valid coin and proof from bin 0, replayed as bin 1's coin 0: its proof
  // was made under bin 0's context.
  auto cross_bin = coins;
  cross_bin.coin_commitments[1][0] = coins.coin_commitments[0][0];
  cross_bin.coin_proofs[1][0] = coins.coin_proofs[0][0];

  for (bool batch_verify : {true, false}) {
    config.batch_verify = batch_verify;
    PublicVerifier<G> verifier(config, ped);
    EXPECT_TRUE(PerCoinVerdict(ped, config, 0, coins));
    EXPECT_TRUE(verifier.CheckCoinProofs(0, coins));
    for (const ProverCoinsMsg<G>* bad : {&tampered, &swapped, &cross_bin}) {
      EXPECT_FALSE(PerCoinVerdict(ped, config, 0, *bad));
      EXPECT_FALSE(verifier.CheckCoinProofs(0, *bad)) << "batch_verify=" << batch_verify;
    }
  }
}

TEST(BatchVerifierIntegrationTest, EndToEndProtocolAndAuditWithBatchVerify) {
  auto config = BatchConfig(2, 3);
  std::vector<uint32_t> values = {0, 1, 2, 1, 1, 0};

  SecureRng rng_batch("batch-e2e-run");
  auto result = RunHonestProtocol<G>(config, values, rng_batch);
  ASSERT_TRUE(result.accepted());
  EXPECT_EQ(result.accepted_clients.size(), values.size());

  // Same seed, batching off: identical histogram (batching changes no wire
  // message, only how the verifier checks them).
  auto plain_config = config;
  plain_config.batch_verify = false;
  SecureRng rng_plain("batch-e2e-run");
  auto plain_result = RunHonestProtocol<G>(plain_config, values, rng_plain);
  ASSERT_TRUE(plain_result.accepted());
  EXPECT_EQ(result.raw_histogram, plain_result.raw_histogram);

  // A bystander auditing the recorded transcript with batching on reaches
  // the same verdict and histogram.
  Pedersen<G> ped;
  SecureRng rng_rec("batch-e2e-audit");
  std::vector<ClientBundle<G>> clients;
  SecureRng crng = rng_rec.Fork("clients");
  for (size_t i = 0; i < values.size(); ++i) {
    clients.push_back(MakeClientBundle<G>(values[i], i, config, ped, crng));
  }
  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped,
                                                rng_rec.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng_rec.Fork("verifier");
  PublicTranscript<G> record;
  auto recorded = RunProtocol(config, ped, clients, provers, vrng, nullptr, &record);
  ASSERT_TRUE(recorded.accepted());

  auto decoded = DeserializeTranscript<G>(SerializeTranscript(record));
  ASSERT_TRUE(decoded.has_value());
  auto report = AuditTranscript(*decoded, config, ped);
  EXPECT_TRUE(report.accepted());
  EXPECT_EQ(report.raw_histogram, recorded.raw_histogram);
}

}  // namespace
}  // namespace vdp
