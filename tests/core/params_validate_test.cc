// ProtocolConfig::Validate(): every nonsensical parameter combination is
// rejected with a structured, field-attributed error -- at protocol entry
// (RunProtocol / AuditTranscript return kInvalidConfig) and at the backend
// factory (MakeVerifyBackend throws) -- and sane configurations pass.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/audit.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

using G = ModP256;

TEST(ProtocolConfigValidateTest, DefaultConfigIsValid) {
  ProtocolConfig config;
  EXPECT_FALSE(config.Validate().has_value());
}

TEST(ProtocolConfigValidateTest, RealisticBackendConfigsAreValid) {
  ProtocolConfig config;
  config.epsilon = 0.5;
  config.delta = 1.0 / (1 << 20);
  config.num_provers = 3;
  config.num_bins = 16;
  config.batch_verify = true;
  EXPECT_FALSE(config.Validate().has_value());
  config.num_verify_shards = 8;
  EXPECT_FALSE(config.Validate().has_value());
  config.remote_verifiers = {"tcp:127.0.0.1:7000", "unix:/run/vdp/verify.sock"};
  config.remote_auth_key_hex = std::string(32, 'a');
  EXPECT_FALSE(config.Validate().has_value());
}

TEST(ProtocolConfigValidateTest, RejectsBadEpsilon) {
  for (double epsilon : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    ProtocolConfig config;
    config.epsilon = epsilon;
    auto error = config.Validate();
    ASSERT_TRUE(error.has_value()) << "epsilon=" << epsilon;
    EXPECT_EQ(error->field, "epsilon");
    EXPECT_NE(error->Render().find("ProtocolConfig.epsilon"), std::string::npos);
  }
}

TEST(ProtocolConfigValidateTest, RejectsBadDelta) {
  for (double delta : {0.0, -0.25, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
    ProtocolConfig config;
    config.delta = delta;
    auto error = config.Validate();
    ASSERT_TRUE(error.has_value()) << "delta=" << delta;
    EXPECT_EQ(error->field, "delta");
  }
}

TEST(ProtocolConfigValidateTest, RejectsZeroProvers) {
  ProtocolConfig config;
  config.num_provers = 0;
  auto error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "num_provers");
}

TEST(ProtocolConfigValidateTest, RejectsZeroBins) {
  ProtocolConfig config;
  config.num_bins = 0;
  auto error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "num_bins");
}

TEST(ProtocolConfigValidateTest, RejectsZeroShards) {
  ProtocolConfig config;
  config.num_verify_shards = 0;
  auto error = config.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "num_verify_shards");
}

// Protocol entry: an invalid config is rejected as a structured verdict
// before any party does cryptographic work.
TEST(ProtocolConfigValidateTest, RunProtocolReturnsInvalidConfigVerdict) {
  Pedersen<G> ped;
  ProtocolConfig config;
  config.num_bins = 0;
  SecureRng rng("params-validate-run");
  auto result = RunProtocol<G>(config, ped, {}, {}, rng);
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.verdict.code, VerdictCode::kInvalidConfig);
  EXPECT_EQ(result.verdict.cheating_prover, kNoParty);
  EXPECT_NE(result.verdict.detail.find("num_bins"), std::string::npos);
  EXPECT_STREQ(VerdictCodeName(result.verdict.code), "invalid-config");
}

TEST(ProtocolConfigValidateTest, AuditReturnsInvalidConfigVerdict) {
  Pedersen<G> ped;
  ProtocolConfig config;
  config.epsilon = -2.0;
  PublicTranscript<G> transcript;
  auto report = AuditTranscript(transcript, config, ped);
  EXPECT_FALSE(report.accepted());
  EXPECT_EQ(report.verdict.code, VerdictCode::kInvalidConfig);
  EXPECT_NE(report.verdict.detail.find("epsilon"), std::string::npos);
}

// Factory entry: every invalid combination throws with the rendered error.
TEST(ProtocolConfigValidateTest, FactoryThrowsOnEveryInvalidCombo) {
  Pedersen<G> ped;
  auto expect_throws = [&](ProtocolConfig config, const std::string& field) {
    try {
      MakeVerifyBackend<G>(config, ped);
      FAIL() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  ProtocolConfig config;
  config.epsilon = 0.0;
  expect_throws(config, "epsilon");
  config = ProtocolConfig{};
  config.delta = 1.5;
  expect_throws(config, "delta");
  config = ProtocolConfig{};
  config.num_provers = 0;
  expect_throws(config, "num_provers");
  config = ProtocolConfig{};
  config.num_bins = 0;
  expect_throws(config, "num_bins");
  config = ProtocolConfig{};
  config.num_verify_shards = 0;
  expect_throws(config, "num_verify_shards");
}

}  // namespace
}  // namespace vdp
