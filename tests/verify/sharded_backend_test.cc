// The in-process sharded backend (src/verify/factory.h over the
// src/shard/ pipeline): the combined verdict must be bit-identical to the
// monolithic PublicVerifier path -- accepted set, rejection reasons, and
// Eq. 10 commitment products -- and blame attribution must stay confined to
// the shard containing the corrupted upload.
#include <gtest/gtest.h>

#include "src/core/audit.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;
using Element = G::Element;

ProtocolConfig ShardConfig(size_t provers, size_t bins, size_t shards,
                           const std::string& sid) {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31: keeps protocol-level tests fast
  config.num_provers = provers;
  config.num_bins = bins;
  config.session_id = sid;
  config.batch_verify = true;
  config.num_verify_shards = shards;
  return config;
}

std::vector<ClientUploadMsg<G>> MakeUploads(const ProtocolConfig& config,
                                            const Pedersen<G>& ped, size_t n,
                                            SecureRng& rng) {
  std::vector<ClientUploadMsg<G>> uploads;
  uploads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, ped, rng)
            .upload);
  }
  return uploads;
}

std::unique_ptr<VerifyBackend<G>> Sharded(const ProtocolConfig& config,
                                          const Pedersen<G>& ped) {
  return MakeVerifyBackend<G>(VerifyBackendKind::kSharded, config, ped);
}

VerifyOptions WithPool(ThreadPool* pool) {
  VerifyOptions options;
  options.pool = pool;
  return options;
}

// The monolithic oracle's view of the Eq. 10 client product.
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

// The headline equivalence test: >= 4096 uploads, a few corrupted, verified
// monolithically (one whole-stream batch and per-proof) and sharded -- all
// three must produce the same accepted set, and the sharded commitment
// products must equal the direct product over the accepted set.
TEST(ShardedBackendTest, FourThousandUploadsMatchMonolithic) {
  SecureRng rng("shard-4096");
  auto config = ShardConfig(1, 1, 8, "shard-4096");
  Pedersen<G> ped;
  auto uploads = MakeUploads(config, ped, 4096, rng);

  // Corrupt a handful of uploads spread across shards: bad OR proof, bad
  // shape, non-bit commitment with honest-shaped proof.
  uploads[100].bin_proofs[0].z0 += S::One();
  uploads[2048].commitments.clear();
  uploads[4000].bin_proofs[0].e1 += S::One();

  auto monolithic_config = config;
  monolithic_config.num_verify_shards = 1;
  auto per_proof_config = monolithic_config;
  per_proof_config.batch_verify = false;

  ThreadPool pool(4);
  PublicVerifier<G> sharded_verifier(config, ped);
  PublicVerifier<G> monolithic_verifier(monolithic_config, ped);
  PublicVerifier<G> per_proof_verifier(per_proof_config, ped);

  std::vector<std::string> sharded_reasons;
  std::vector<std::string> monolithic_reasons;
  auto verdict = sharded_verifier.ValidateClientsReport(uploads, &pool);
  EXPECT_EQ(verdict.backend, "sharded");
  auto sharded_accepted =
      sharded_verifier.ValidateClients(uploads, &sharded_reasons, &pool);
  auto monolithic_accepted =
      monolithic_verifier.ValidateClients(uploads, &monolithic_reasons, &pool);
  auto per_proof_accepted = per_proof_verifier.ValidateClients(uploads, nullptr, &pool);

  EXPECT_EQ(verdict.accepted, monolithic_accepted);
  EXPECT_EQ(sharded_accepted, monolithic_accepted);
  EXPECT_EQ(monolithic_accepted, per_proof_accepted);
  EXPECT_EQ(sharded_reasons, monolithic_reasons);
  EXPECT_EQ(monolithic_accepted.size(), 4096u - 3u);

  EXPECT_EQ(verdict.total_uploads, 4096u);
  EXPECT_EQ(verdict.num_shards, 8u);
  // 3 corrupted uploads in 8 shards of 512: indices 100, 2048, 4000 fall in
  // shards 0 and 4 and 7, but the shape-corrupted 2048 fails structurally
  // and never reaches the RLC check, so only shards 0 and 7 pay fallback.
  EXPECT_EQ(verdict.shards_with_fallback, 2u);

  // The combined products equal the direct product over the accepted set:
  // the "aggregate" half of the equivalence claim.
  auto direct = DirectProducts(config, uploads, monolithic_accepted);
  ASSERT_EQ(verdict.commitment_products.size(), direct.size());
  for (size_t k = 0; k < direct.size(); ++k) {
    for (size_t m = 0; m < direct[k].size(); ++m) {
      EXPECT_EQ(verdict.commitment_products[k][m], direct[k][m]) << "k=" << k << " m=" << m;
    }
  }
}

// Blame attribution is confined: with one corrupted upload, exactly one
// shard reports fallback_used, and it is the shard holding the corruption.
TEST(ShardedBackendTest, FallbackConfinedToCorruptedShard) {
  SecureRng rng("shard-confined");
  auto config = ShardConfig(2, 2, 4, "shard-confined");
  Pedersen<G> ped;
  auto uploads = MakeUploads(config, ped, 64, rng);
  const size_t victim = 37;  // shard 2 of 4 (shards of 16)
  uploads[victim].bin_proofs[1].z1 += S::One();

  // Verify each shard individually to observe per-shard fallback flags.
  for (size_t s = 0; s < 4; ++s) {
    auto result = VerifyShard(config, ped, uploads.data() + s * 16, 16, s * 16, s);
    EXPECT_EQ(result.fallback_used, s == 2) << "shard " << s;
    if (s == 2) {
      ASSERT_EQ(result.rejections.size(), 1u);
      EXPECT_EQ(result.rejections[0].first, victim);
      EXPECT_EQ(result.rejections[0].second, "bin OR proof invalid");
      EXPECT_EQ(result.accepted.size(), 15u);
    } else {
      EXPECT_TRUE(result.rejections.empty());
      EXPECT_EQ(result.accepted.size(), 16u);
    }
  }

  // And the combined verdict agrees with the monolithic path.
  auto verdict = Sharded(config, ped)->VerifyAll(uploads);
  EXPECT_EQ(verdict.shards_with_fallback, 1u);
  auto monolithic_config = config;
  monolithic_config.num_verify_shards = 1;
  PublicVerifier<G> monolithic(monolithic_config, ped);
  EXPECT_EQ(verdict.accepted, monolithic.ValidateClients(uploads));
}

// The streaming API must agree with one-shot verification and keep shard
// accounting consistent (contiguous bases, ceil(n/capacity) shards).
TEST(ShardedBackendTest, StreamingMatchesOneShot) {
  SecureRng rng("shard-stream");
  auto config = ShardConfig(2, 3, 5, "shard-stream");
  Pedersen<G> ped;
  auto uploads = MakeUploads(config, ped, 53, rng);
  uploads[11].bin_proofs[2].e0 += S::One();
  uploads[29].sum_randomness += S::One();  // breaks the one-hot opening

  ThreadPool pool(3);
  ProtocolConfig stream_config = config;
  stream_config.stream_shard_capacity = 8;
  stream_config.stream_max_inflight_shards = 2;
  auto streaming = Sharded(stream_config, ped);
  VerifyOptions stream_options = WithPool(&pool);
  streaming->Start(stream_options);
  for (const auto& u : uploads) {
    streaming->Add(u);
  }
  auto stream_verdict = streaming->Finish();
  auto oneshot_verdict = Sharded(config, ped)->VerifyAll(uploads, WithPool(&pool));

  EXPECT_EQ(stream_verdict.accepted, oneshot_verdict.accepted);
  EXPECT_EQ(stream_verdict.rejections, oneshot_verdict.rejections);
  EXPECT_EQ(stream_verdict.RenderedReasons(), oneshot_verdict.RenderedReasons());
  EXPECT_EQ(stream_verdict.total_uploads, 53u);
  EXPECT_EQ(stream_verdict.num_shards, 7u);  // ceil(53 / 8)
  for (size_t k = 0; k < config.num_provers; ++k) {
    for (size_t m = 0; m < config.num_bins; ++m) {
      EXPECT_EQ(stream_verdict.commitment_products[k][m],
                oneshot_verdict.commitment_products[k][m]);
    }
  }

  // A finished backend is reset: a second stream starts from index 0.
  streaming->Start(stream_options);
  streaming->Add(uploads[0]);
  auto second = streaming->Finish();
  EXPECT_EQ(second.accepted, (std::vector<size_t>{0}));
  EXPECT_EQ(second.total_uploads, 1u);
}

TEST(ShardedBackendTest, EdgeShapes) {
  SecureRng rng("shard-edges");
  auto config = ShardConfig(1, 2, 6, "shard-edges");
  Pedersen<G> ped;

  // Empty stream.
  auto empty = Sharded(config, ped);
  empty->Start(VerifyOptions{});
  auto verdict = empty->Finish();
  EXPECT_TRUE(verdict.accepted.empty());
  EXPECT_EQ(verdict.num_shards, 0u);
  ASSERT_EQ(verdict.commitment_products.size(), 1u);
  EXPECT_EQ(verdict.commitment_products[0][0], G::Identity());

  // More shards than uploads: collapses to one shard per upload, same verdict.
  auto uploads = MakeUploads(config, ped, 3, rng);
  auto small = Sharded(config, ped)->VerifyAll(uploads);
  EXPECT_EQ(small.accepted, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(small.num_shards, 3u);
}

// batch_verify alone is the sharded backend on one whole-stream shard: the
// one-shot run is a single RLC batch (one shard, the pool inside it), and
// streaming still cuts bounded-memory shards -- both with the oracle's
// decisions.
TEST(ShardedBackendTest, BatchVerifyAloneIsOneWholeStreamShard) {
  SecureRng rng("shard-batch-only");
  auto config = ShardConfig(1, 2, 1, "shard-batch-only");
  Pedersen<G> ped;
  auto uploads = MakeUploads(config, ped, 40, rng);
  uploads[17].bin_proofs[0].z0 += S::One();

  ASSERT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kSharded);
  auto per_proof_config = config;
  per_proof_config.batch_verify = false;
  ASSERT_EQ(SelectVerifyBackend(per_proof_config), VerifyBackendKind::kPerProof);
  auto oracle = MakeVerifyBackend<G>(per_proof_config, ped)->VerifyAll(uploads);

  ThreadPool pool(2);
  config.stream_shard_capacity = 16;  // the streaming run below
  auto backend = MakeVerifyBackend<G>(config, ped);
  auto oneshot = backend->VerifyAll(uploads, WithPool(&pool));
  EXPECT_EQ(oneshot.backend, "sharded");
  EXPECT_EQ(oneshot.num_shards, 1u);
  EXPECT_EQ(oneshot.shards_with_fallback, 1u);
  EXPECT_EQ(oneshot.accepted, oracle.accepted);
  EXPECT_EQ(oneshot.rejections, oracle.rejections);

  VerifyOptions options = WithPool(&pool);
  backend->Start(options);
  for (const auto& u : uploads) {
    backend->Add(u);
  }
  auto streamed = backend->Finish();
  EXPECT_EQ(streamed.num_shards, 3u);  // ceil(40 / 16)
  EXPECT_EQ(streamed.accepted, oracle.accepted);
  EXPECT_EQ(streamed.rejections, oracle.rejections);
  for (size_t m = 0; m < config.num_bins; ++m) {
    EXPECT_EQ(streamed.commitment_products[0][m], oneshot.commitment_products[0][m]);
    EXPECT_EQ(oracle.commitment_products[0][m], oneshot.commitment_products[0][m]);
  }
}

// End-to-end: the full protocol with sharded validation accepts and produces
// the same histogram as the unsharded run with the same seed; a bystander
// audit configured with sharding reaches the same verdict.
TEST(ShardedBackendTest, ProtocolAndAuditWithShardsMatchUnsharded) {
  auto config = ShardConfig(2, 3, 3, "shard-e2e");
  std::vector<uint32_t> values = {0, 1, 2, 1, 1, 0, 2, 2, 1};

  SecureRng rng_sharded("shard-e2e-run");
  auto sharded_result = RunHonestProtocol<G>(config, values, rng_sharded);
  ASSERT_TRUE(sharded_result.accepted()) << sharded_result.verdict.detail;
  EXPECT_EQ(sharded_result.accepted_clients.size(), values.size());

  auto plain_config = config;
  plain_config.num_verify_shards = 1;
  SecureRng rng_plain("shard-e2e-run");
  auto plain_result = RunHonestProtocol<G>(plain_config, values, rng_plain);
  ASSERT_TRUE(plain_result.accepted());
  EXPECT_EQ(sharded_result.raw_histogram, plain_result.raw_histogram);

  // Recorded transcript -> serialized -> audited with sharding on.
  Pedersen<G> ped;
  SecureRng rng_rec("shard-e2e-audit");
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
  EXPECT_TRUE(report.accepted()) << report.verdict.detail;
  EXPECT_EQ(report.raw_histogram, recorded.raw_histogram);
}

// A client whose broadcast is valid but whose private share is garbage is
// dropped by the prover-side consistency filter *after* sharded validation;
// the protocol must then fall back to recomputing the Eq. 10 product from
// the consistent set rather than reusing the sharded products.
TEST(ShardedBackendTest, InconsistentShareForcesProductRecomputation) {
  auto config = ShardConfig(2, 2, 2, "shard-inconsistent");
  Pedersen<G> ped;
  SecureRng rng("shard-inconsistent-run");
  std::vector<uint32_t> values = {0, 1, 1, 0, 1, 0};
  std::vector<ClientBundle<G>> clients;
  SecureRng crng = rng.Fork("clients");
  for (size_t i = 0; i < values.size(); ++i) {
    clients.push_back(MakeClientBundle<G>(values[i], i, config, ped, crng));
  }
  // Client 3 sends prover 1 a share that does not open its public commitment.
  clients[3].shares[1].randomness[0] += S::One();

  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < config.num_provers; ++k) {
    owned.push_back(
        std::make_unique<Prover<G>>(k, config, ped, rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  auto result = RunProtocol(config, ped, clients, provers, vrng);
  ASSERT_TRUE(result.accepted()) << result.verdict.detail;
  EXPECT_EQ(result.accepted_clients, (std::vector<size_t>{0, 1, 2, 4, 5}));
}

}  // namespace
}  // namespace vdp
