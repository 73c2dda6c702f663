// The rule engine behind tools/vdp_lint, pinned rule by rule: each seeded
// violation must be flagged with exactly its rule, idiomatic code must pass,
// and the escape hatches (tests/ scoping, `vdp-lint: allow(...)`, comments
// and string literals) must behave. The on-disk fixtures in
// tests/lint/fixtures/ are exercised end-to-end by `vdp_lint --self-test`
// in the lint CI job; these tests cover the same classes hermetically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/lint/linter.h"

namespace vdp {
namespace lint {
namespace {

LintConfig CanonConfig() {
  LintConfig config;
  config.canonical_metric_names = {"fleet.retries", "verify.shard_ms"};
  return config;
}

TEST(VdpLintTest, FlagsBannedRngOutsideTests) {
  const std::string src = "std::mt19937 gen(std::random_device{}());\n"
                          "int x = rand();\n";
  const auto findings = LintSource("src/common/noise.cc", src, CanonConfig());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "rng");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].rule, "rng");
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(VdpLintTest, RngIsAllowedInTests) {
  const std::string src = "std::mt19937 gen(42);\n";
  EXPECT_TRUE(LintSource("tests/common/foo_test.cc", src, CanonConfig()).empty());
}

TEST(VdpLintTest, SecureRngIsNotARngFinding) {
  const std::string src = "SecureRng rng(\"label\");\n"
                          "Bytes b = rng.RandomBytes(32);\n";
  EXPECT_TRUE(LintSource("src/common/use.cc", src, CanonConfig()).empty());
}

TEST(VdpLintTest, FlagsSystemClockAndHonorsAllow) {
  const std::string bad = "auto t = std::chrono::system_clock::now();\n";
  const auto findings = LintSource("src/common/t.cc", bad, CanonConfig());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "clock");

  const std::string annotated =
      "auto t = std::chrono::system_clock::now();  // vdp-lint: allow(clock)\n";
  EXPECT_TRUE(LintSource("src/common/t.cc", annotated, CanonConfig()).empty());
}

TEST(VdpLintTest, FlagsRawComparesOnSecretMaterial) {
  const std::string memcmp_src =
      "bool ok = std::memcmp(tag_.data(), other.data(), 32) == 0;\n";
  const std::string equal_src =
      "bool ok = std::equal(params_digest.begin(), params_digest.end(), b.begin());\n";
  const std::string eq_src = "if (session_key != expected) { return false; }\n";
  for (const std::string& src : {memcmp_src, equal_src, eq_src}) {
    const auto findings = LintSource("src/net/x.cc", src, CanonConfig());
    ASSERT_EQ(findings.size(), 1u) << src;
    EXPECT_EQ(findings[0].rule, "ct-compare") << src;
  }
}

TEST(VdpLintTest, InnocentComparesPass) {
  // "machine" and "stage" contain mac/tag substrings but are not secrets;
  // ConstantTimeEqual is the sanctioned spelling; enum compares are fine.
  const std::string src =
      "bool a = machine_id == other.machine_id;\n"
      "bool b = stage != kStageIngest;\n"
      "bool c = ConstantTimeEqual(params_digest, ack_digest);\n"
      "if (frame.type != wire::FrameType::kResult) { return false; }\n"
      "size_t n = a.size() <= b.size() ? 1 : 2;\n"
      "static_assert(sizeof(Sha256::Digest) == SecureRng::kSeedSize);\n"
      "bool d = fault == FaultMode::kStaleDigest;\n";
  EXPECT_TRUE(LintSource("src/net/x.cc", src, CanonConfig()).empty());
}

TEST(VdpLintTest, CommentsAndStringsAreInvisibleToTokenRules) {
  const std::string src =
      "// rand() and std::mt19937 discussed here, plus system_clock\n"
      "/* memcmp(tag_, digest) == 0 in a block comment */\n"
      "const char* doc = \"never memcmp a params_digest; rand() is banned\";\n";
  EXPECT_TRUE(LintSource("src/common/doc.cc", src, CanonConfig()).empty());
}

TEST(VdpLintTest, BlockCommentStateSpansLines) {
  const std::string src =
      "/* a comment that opens here\n"
      "   still commented: rand(); system_clock;\n"
      "*/ int after = 1;\n";
  EXPECT_TRUE(LintSource("src/common/doc.cc", src, CanonConfig()).empty());
}

TEST(VdpLintTest, FlagsRogueMetricLiteralsAndAcceptsCanonical) {
  const std::string rogue = "obs::GlobalCounter(\"my.adhoc_counter\")->Increment();\n";
  const auto findings = LintSource("src/shard/x.cc", rogue, CanonConfig());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-name");

  // Canonical literal or a named constant: both pass.
  const std::string fine =
      "obs::GlobalCounter(\"fleet.retries\")->Increment();\n"
      "obs::GlobalHistogram(obs::kVerifyShardMs)->Record(1.0);\n";
  EXPECT_TRUE(LintSource("src/shard/x.cc", fine, CanonConfig()).empty());
}

TEST(VdpLintTest, ParsesCanonicalNamesFromMetricsHeader) {
  const std::string header =
      "// names\n"
      "inline constexpr const char* kFleetRetries = \"fleet.retries\";\n"
      "inline constexpr const char* kVerifyShardMs = \"verify.shard_ms\";\n"
      "inline constexpr size_t kNotAName = 3;\n";
  const auto names = ParseCanonicalMetricNames(header);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "fleet.retries");
  EXPECT_EQ(names[1], "verify.shard_ms");
}

TEST(VdpLintTest, WireGoldenRuleRequiresPairedGoldenUpdate) {
  const std::vector<std::string> bare = {"src/wire/wire_format.h", "src/net/auth.h"};
  const auto findings = LintChangedSet(bare);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wire-golden");
  EXPECT_EQ(findings[0].file, "src/wire/wire_format.h");
  EXPECT_EQ(findings[0].line, 0u);

  const std::vector<std::string> paired = {"src/wire/wire_format.h",
                                           "tests/wire/wire_golden_test.cc"};
  EXPECT_TRUE(LintChangedSet(paired).empty());

  // Changes elsewhere never trip the rule.
  const std::vector<std::string> unrelated = {"src/net/auth.h", "README.md"};
  EXPECT_TRUE(LintChangedSet(unrelated).empty());
}

}  // namespace
}  // namespace lint
}  // namespace vdp
