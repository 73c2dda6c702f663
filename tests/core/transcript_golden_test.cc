// Byte-identity of the published transcript: seeded Pi_Bin rounds must
// serialize to exactly the pinned SHA-256 digests. Client bin proofs, prover
// coin proofs, Morra and the prover outputs all land in the transcript, so a
// change to how any of them is computed (as opposed to what it is) must keep
// these digests. A digest change is a wire-visible change to every auditor.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/hex.h"
#include "src/common/sha256.h"
#include "src/core/audit.h"

namespace vdp {
namespace {

struct GoldenRound {
  size_t provers;
  size_t bins;
  bool batch_verify;
  const char* seed;
};

// Runs one seeded round (eight clients, one pool or none) and returns the
// hex SHA-256 of its serialized public transcript.
template <PrimeOrderGroup G>
std::string TranscriptDigest(const GoldenRound& round, ThreadPool* pool) {
  ProtocolConfig config;
  config.epsilon = 8.0;
  config.num_provers = round.provers;
  config.num_bins = round.bins;
  config.batch_verify = round.batch_verify;
  config.session_id = std::string("golden/") + round.seed;

  Pedersen<G> ped;
  SecureRng rng(round.seed);
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  for (size_t i = 0; i < 8; ++i) {
    clients.push_back(MakeClientBundle<G>(static_cast<uint32_t>((3 * i + 1) % round.bins), i,
                                          config, ped, crng));
  }
  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < round.provers; ++k) {
    owned.push_back(
        std::make_unique<Prover<G>>(k, config, ped, rng.Fork("prover/" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  PublicTranscript<G> transcript;
  ProtocolResult result = RunProtocol(config, ped, clients, provers, vrng, pool, &transcript);
  EXPECT_TRUE(result.accepted());
  Sha256::Digest d = Sha256::Hash(SerializeTranscript(transcript));
  return HexEncode(BytesView(d.data(), d.size()));
}

template <PrimeOrderGroup G>
void ExpectDigests(const GoldenRound& batched, const std::string& batched_digest,
                   const GoldenRound& per_proof, const std::string& per_proof_digest) {
  ThreadPool pool(2);
  EXPECT_EQ(TranscriptDigest<G>(batched, nullptr), batched_digest);
  EXPECT_EQ(TranscriptDigest<G>(batched, &pool), batched_digest);
  EXPECT_EQ(TranscriptDigest<G>(per_proof, nullptr), per_proof_digest);
  EXPECT_EQ(TranscriptDigest<G>(per_proof, &pool), per_proof_digest);
}

TEST(TranscriptGoldenTest, Ed25519RoundsAreByteIdentical) {
  ExpectDigests<Ed25519Group>(
      {1, 1, true, "golden-ed25519-k1m1"},
      "c0fb6737240742e841a3bc43760d95e97b96175f0e88efddd7bd2a0862c2ea79",
      {2, 3, false, "golden-ed25519-k2m3"},
      "4fe0a484b322dcc8f4ca65e800202973e607fdbecced769d1066729f040b062d");
}

TEST(TranscriptGoldenTest, ModP256RoundsAreByteIdentical) {
  ExpectDigests<ModP256>(
      {1, 1, true, "golden-modp256-k1m1"},
      "0771c05db86c7bbbe3dd217328c5c1fa4fe482a6f2574cd85b2b36ed726d80bc",
      {2, 3, false, "golden-modp256-k2m3"},
      "9a68eccfa75ff7a34e636fe005bb1de844352a21216428464c364fa9cdacc8cb");
}

}  // namespace
}  // namespace vdp
