// End-to-end subgroup enforcement at the public-transcript boundary: a
// published transcript in which a single group element is moved off the
// prime-order subgroup (shifted by a point of order 8, so it still lies on
// the curve and re-encodes canonically) must not parse. Covers a prover's
// coin commitment and a client's upload commitment separately.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/audit.h"
#include "tests/group/ed25519_torsion_util.h"

namespace vdp {
namespace {

using G = Ed25519Group;

ProtocolConfig TorsionConfig() {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.num_bins = 2;
  config.session_id = "audit-torsion-test";
  return config;
}

struct Recorded {
  PublicTranscript<G> transcript;
  Bytes wire;
};

Recorded RunRecorded() {
  const ProtocolConfig config = TorsionConfig();
  Pedersen<G> ped;
  SecureRng rng("audit-torsion");
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  for (size_t i = 0; i < 4; ++i) {
    clients.push_back(MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i,
                                          config, ped, crng));
  }
  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped,
                                                rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  Recorded rec;
  ProtocolResult result =
      RunProtocol(config, ped, clients, provers, vrng, nullptr, &rec.transcript);
  EXPECT_TRUE(result.accepted());
  rec.wire = SerializeTranscript(rec.transcript);
  return rec;
}

// Replaces the one occurrence of e's encoding in `wire` with the encoding of
// e shifted by the order-8 point.
Bytes ShiftElementInWire(const Bytes& wire, const G::Element& e) {
  const Bytes enc = G::Encode(e);
  auto at = std::search(wire.begin(), wire.end(), enc.begin(), enc.end());
  EXPECT_NE(at, wire.end());
  EXPECT_EQ(std::search(at + 1, wire.end(), enc.begin(), enc.end()), wire.end());
  Bytes out = wire;
  const Bytes shifted = testing_util::EncodeShiftedByOrder8(e);
  EXPECT_NE(shifted, enc);
  std::copy(shifted.begin(), shifted.end(), out.begin() + (at - wire.begin()));
  return out;
}

TEST(AuditTorsionTest, HonestTranscriptParses) {
  Recorded rec = RunRecorded();
  EXPECT_TRUE(DeserializeTranscript<G>(rec.wire).has_value());
}

TEST(AuditTorsionTest, CoinCommitmentShiftedByOrder8Rejected) {
  Recorded rec = RunRecorded();
  const auto& coins = rec.transcript.prover_coins[1].coin_commitments;
  ASSERT_FALSE(coins.empty());
  ASSERT_FALSE(coins.back().empty());
  Bytes forged = ShiftElementInWire(rec.wire, coins.back().back());
  EXPECT_EQ(forged.size(), rec.wire.size());
  EXPECT_FALSE(DeserializeTranscript<G>(forged).has_value());
}

TEST(AuditTorsionTest, UploadCommitmentShiftedByOrder8Rejected) {
  Recorded rec = RunRecorded();
  const auto& upload = rec.transcript.client_uploads[2];
  Bytes forged = ShiftElementInWire(rec.wire, upload.commitments[1][0]);
  EXPECT_EQ(forged.size(), rec.wire.size());
  EXPECT_FALSE(DeserializeTranscript<G>(forged).has_value());
  // The same upload on its own is rejected by its own decoder as well.
  Bytes upload_forged = ShiftElementInWire(upload.Serialize(), upload.commitments[1][0]);
  EXPECT_FALSE(ClientUploadMsg<G>::Deserialize(upload_forged).has_value());
}

}  // namespace
}  // namespace vdp
