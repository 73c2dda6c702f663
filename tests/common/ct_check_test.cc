// Pins the timing-audit engine's math and decision rule. The statistical
// checks run on synthetic samples (deterministic, noise-free); the one live
// audit uses a deliberately enormous class separation so it cannot flake on
// a loaded CI machine. The real constant-time verdicts over the crypto
// primitives live in tools/ct_audit.cc, which gets CI time budgets a unit
// test should not.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ct_check.h"

namespace vdp {
namespace {

TEST(WelchTTest, IdenticalPopulationsScoreZero) {
  std::vector<double> a = {10, 11, 12, 13, 14, 15};
  EXPECT_DOUBLE_EQ(WelchT(a, a), 0.0);
}

TEST(WelchTTest, SeparatedPopulationsScoreLarge) {
  std::vector<double> fast;
  std::vector<double> slow;
  for (int i = 0; i < 200; ++i) {
    fast.push_back(100.0 + (i % 7));
    slow.push_back(200.0 + (i % 5));
  }
  const double t = WelchT(fast, slow);
  EXPECT_LT(t, -10.0);  // sign follows (mean_a - mean_b)
  TimingAuditResult result;
  result.t_stat = t;
  EXPECT_TRUE(result.Leaks());
}

TEST(WelchTTest, DegenerateSamplesScoreZero) {
  EXPECT_DOUBLE_EQ(WelchT({}, {1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(WelchT({1.0}, {1.0, 2.0}), 0.0);
  // Zero variance in both populations, equal means: no separation.
  EXPECT_DOUBLE_EQ(WelchT({5.0, 5.0}, {5.0, 5.0}), 0.0);
}

TEST(TimingAuditResultTest, ThresholdIsTwoSided) {
  TimingAuditResult result;
  result.t_stat = 10.5;
  EXPECT_TRUE(result.Leaks());
  result.t_stat = -10.5;
  EXPECT_TRUE(result.Leaks());
  result.t_stat = 9.5;
  EXPECT_FALSE(result.Leaks());
}

// Feeds a fixed sequence of per-attempt t statistics to RetryTimingAudit;
// *calls counts the attempts it ran.
double Replay(const std::vector<double>& ts, bool want_leak, size_t* calls,
              int max_attempts = 5) {
  *calls = 0;
  return RetryTimingAudit([&] { return ts.at((*calls)++); }, max_attempts, want_leak);
}

TEST(RetryTimingAuditTest, RequiredCheckKeepsSmallestAbsT) {
  size_t calls = 0;
  // A noisy first attempt, then a clean one: the clean attempt decides and
  // ends the run.
  double t = Replay({+10.73, -3.47, +25.0}, /*want_leak=*/false, &calls);
  EXPECT_DOUBLE_EQ(t, -3.47);
  EXPECT_EQ(calls, 2u);
  EXPECT_FALSE(TimingAuditResult{t}.Leaks());

  // A leak on every attempt stays a leak: all attempts run, smallest |t| kept.
  t = Replay({+40.0, -12.5, +30.0, +19.0, +55.0}, /*want_leak=*/false, &calls);
  EXPECT_DOUBLE_EQ(t, -12.5);
  EXPECT_EQ(calls, 5u);
  EXPECT_TRUE(TimingAuditResult{t}.Leaks());
}

TEST(RetryTimingAuditTest, ControlMustLeakOnEveryAttemptItRuns) {
  size_t calls = 0;
  EXPECT_DOUBLE_EQ(Replay({-80.0}, /*want_leak=*/true, &calls), -80.0);
  EXPECT_EQ(calls, 1u);

  // A clean attempt is kept even after a later leak, so the control fails.
  const double t = Replay({+4.0, +60.0}, /*want_leak=*/true, &calls);
  EXPECT_DOUBLE_EQ(t, +4.0);
  EXPECT_EQ(calls, 2u);
  EXPECT_FALSE(TimingAuditResult{t}.Leaks());
}

TEST(RetryTimingAuditTest, RunsAtLeastOnce) {
  size_t calls = 0;
  EXPECT_DOUBLE_EQ(Replay({+3.0}, /*want_leak=*/false, &calls, /*max_attempts=*/0), +3.0);
  EXPECT_EQ(calls, 1u);
}

// Live engine run against an operation whose adversarial class does ~100x
// the work of the fixed class: the audit must flag it even on one noisy
// shared core. (No "must NOT leak" live assertion here -- that verdict needs
// ct_audit's larger sample budget and retry policy to be reliable.)
TEST(TimingAuditTest, FlagsMassiveClassSeparation) {
  TimingAuditOptions options;
  options.samples_per_class = 2'000;
  options.warmup = 200;
  volatile uint64_t sink = 0;
  const TimingAuditResult result = RunTimingAudit(
      [&sink](bool adversarial) {
        const int rounds = adversarial ? 400 : 4;
        uint64_t acc = CtOpaque(3);
        for (int i = 0; i < rounds; ++i) {
          acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        }
        sink = acc;
      },
      options);
  EXPECT_TRUE(result.Leaks());
  EXPECT_GT(result.kept_fixed, options.samples_per_class / 2);
  EXPECT_GT(result.kept_adversarial, options.samples_per_class / 2);
}

// The comparison primitive all verdict-relevant checks route through:
// functional pin, so a refactor cannot silently swap in an early-exit.
TEST(ConstantTimeEqualTest, VerdictsAreExact) {
  Bytes a = {1, 2, 3, 4};
  Bytes b = a;
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  b[0] ^= 1;
  EXPECT_FALSE(ConstantTimeEqual(a, b));
  b[0] ^= 1;
  b[3] ^= 0x80;
  EXPECT_FALSE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, BytesView(a.data(), 3)));  // length mismatch
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(CtAnnotationsTest, PoisonUnpoisonAreTransparent) {
  Bytes secret = {0xDE, 0xAD, 0xBE, 0xEF};
  CtPoison(secret.data(), secret.size());
  EXPECT_EQ(secret[0], 0xDE);  // annotations never mutate
  CtUnpoison(secret.data(), secret.size());
  EXPECT_EQ(secret[3], 0xEF);
  EXPECT_EQ(CtOpaque(0x5A), 0x5A);
}

}  // namespace
}  // namespace vdp
