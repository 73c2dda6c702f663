// Public auditability: a bystander re-verifies a run purely from the
// serialized public transcript.
#include "src/core/audit.h"

#include <gtest/gtest.h>

#include "src/core/adversary.h"

namespace vdp {
namespace {

using G = ModP256;

ProtocolConfig AuditConfig(size_t k = 2, size_t m = 2) {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = k;
  config.num_bins = m;
  config.session_id = "audit-test";
  return config;
}

struct Recorded {
  ProtocolResult result;
  PublicTranscript<G> transcript;
  Pedersen<G> ped;
};

Recorded RunRecorded(const ProtocolConfig& config, const std::string& seed) {
  Recorded rec;
  SecureRng rng(seed);
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  for (size_t i = 0; i < 6; ++i) {
    clients.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, rec.ped, crng));
  }
  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, rec.ped,
                                                rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  rec.result = RunProtocol(config, rec.ped, clients, provers, vrng, nullptr, &rec.transcript);
  return rec;
}

TEST(AuditTest, HonestRunAuditsClean) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-honest");
  ASSERT_TRUE(rec.result.accepted());
  auto report = AuditTranscript(rec.transcript, config, rec.ped);
  EXPECT_TRUE(report.accepted());
  EXPECT_EQ(report.raw_histogram, rec.result.raw_histogram);
  EXPECT_EQ(report.accepted_clients, rec.result.accepted_clients);
}

TEST(AuditTest, SerializationRoundTripPreservesAuditability) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-serial");
  ASSERT_TRUE(rec.result.accepted());

  Bytes wire = SerializeTranscript(rec.transcript);
  auto parsed = DeserializeTranscript<G>(wire);
  ASSERT_TRUE(parsed.has_value());
  auto report = AuditTranscript(*parsed, config, rec.ped);
  EXPECT_TRUE(report.accepted());
  EXPECT_EQ(report.raw_histogram, rec.result.raw_histogram);
}

TEST(AuditTest, TamperedOutputCaughtByAuditor) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-tamper");
  ASSERT_TRUE(rec.result.accepted());
  // A post-hoc forgery: the published transcript claims a different y.
  rec.transcript.prover_outputs[0].y[0] += G::Scalar::One();
  auto report = AuditTranscript(rec.transcript, config, rec.ped);
  EXPECT_FALSE(report.accepted());
  EXPECT_EQ(report.verdict.code, VerdictCode::kFinalCheckFailed);
  EXPECT_EQ(report.verdict.cheating_prover, 0u);
}

TEST(AuditTest, TamperedPublicBitCaught) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-bit");
  ASSERT_TRUE(rec.result.accepted());
  rec.transcript.public_bits[1][0][0] = !rec.transcript.public_bits[1][0][0];
  auto report = AuditTranscript(rec.transcript, config, rec.ped);
  EXPECT_FALSE(report.accepted());
  EXPECT_EQ(report.verdict.cheating_prover, 1u);
}

TEST(AuditTest, CorruptedWireBytesRejected) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-wire");
  Bytes wire = SerializeTranscript(rec.transcript);
  // Truncations at various depths must fail cleanly.
  for (size_t cut : {size_t{0}, size_t{2}, wire.size() / 3, wire.size() - 1}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeTranscript<G>(truncated).has_value()) << cut;
  }
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(DeserializeTranscript<G>(extended).has_value());
}

TEST(AuditTest, WrongSessionConfigFailsAudit) {
  // The Fiat-Shamir contexts bind the session id; an auditor with the wrong
  // session cannot validate the proofs.
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-session");
  ASSERT_TRUE(rec.result.accepted());
  auto other = config;
  other.session_id = "some-other-session";
  auto report = AuditTranscript(rec.transcript, other, rec.ped);
  EXPECT_FALSE(report.accepted());
}

TEST(AuditTest, ShapeMismatchRejected) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-shape");
  rec.transcript.prover_outputs.pop_back();
  auto report = AuditTranscript(rec.transcript, config, rec.ped);
  EXPECT_FALSE(report.accepted());
  EXPECT_EQ(report.verdict.code, VerdictCode::kMalformedMessage);
}

// An in-memory transcript whose public bits are not (num_bins x nb) must be
// refused as malformed before Eq. 10 indexes them: a row one bit short used
// to read past its end.
TEST(AuditTest, PublicBitsShapeMismatchRejected) {
  auto config = AuditConfig();
  auto rec = RunRecorded(config, "audit-bits-shape");
  ASSERT_TRUE(rec.result.accepted());

  auto short_row = rec.transcript;
  short_row.public_bits[1][1].pop_back();
  auto report = AuditTranscript(short_row, config, rec.ped);
  EXPECT_FALSE(report.accepted());
  EXPECT_EQ(report.verdict.code, VerdictCode::kMalformedMessage);

  auto missing_bin = rec.transcript;
  missing_bin.public_bits[0].pop_back();
  report = AuditTranscript(missing_bin, config, rec.ped);
  EXPECT_FALSE(report.accepted());
  EXPECT_EQ(report.verdict.code, VerdictCode::kMalformedMessage);
}

}  // namespace
}  // namespace vdp
