// Constant-time discipline tooling: ctgrind-style secret annotations plus a
// dudect-style timing audit engine (Reparaz, Balasch, Verbauwhede: "Dude, is
// my code constant time?"). The annotations mark which bytes are secret so a
// dynamic checker can flag secret-dependent branching; the audit engine
// measures an operation under two input classes (fixed vs adversarial) and
// applies Welch's t-test to the two timing populations. A constant-time
// operation keeps |t| small no matter how many samples accumulate; a
// secret-dependent branch or early-exit drives |t| past any threshold.
//
// tools/ct_audit.cc runs the engine over every verdict-relevant primitive
// (ConstantTimeEqual, HMAC verification, session-key derivation) and the OR
// prover's secret bit, alongside positive controls that MUST be flagged, and
// is wired into CI as its own job. tests/common/ct_check_test.cc pins the
// engine's math.
#ifndef SRC_COMMON_CT_CHECK_H_
#define SRC_COMMON_CT_CHECK_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace vdp {

// --- secret annotations ------------------------------------------------------
//
// CtPoison marks a buffer as secret; CtUnpoison declassifies it (e.g. once a
// constant-time comparison has collapsed it into a public verdict). With no
// instrumenting tool attached they compile to a compiler barrier, which also
// keeps the optimizer from constant-folding "secret" bytes inside the audit
// harness and specializing away the very branches under test.

inline void CtCompilerBarrier(const volatile void* data) {
  asm volatile("" : : "r"(data) : "memory");
}

inline void CtPoison(const void* data, size_t size) {
  (void)size;
  CtCompilerBarrier(data);
}

inline void CtUnpoison(const void* data, size_t size) {
  (void)size;
  CtCompilerBarrier(data);
}

// Launders a byte through an opaque register so its value cannot participate
// in compile-time specialization.
inline uint8_t CtOpaque(uint8_t v) {
  asm volatile("" : "+r"(v));
  return v;
}

// --- timing ------------------------------------------------------------------

// Serialized cycle counter where the ISA has one, wall clock otherwise. Only
// differences matter; the unit cancels out of the t statistic.
inline uint64_t CtNowTicks() {
#if defined(__x86_64__)
  uint32_t lo = 0;
  uint32_t hi = 0;
  asm volatile("lfence\n\trdtsc" : "=a"(lo), "=d"(hi)::"memory");
  return (static_cast<uint64_t>(hi) << 32) | lo;
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// --- dudect-style audit ------------------------------------------------------

struct TimingAuditOptions {
  // Measurements per class, after warmup. More samples sharpen real leaks;
  // noise-driven |t| stays bounded regardless.
  size_t samples_per_class = 20'000;
  // Discarded leading measurements (caches, branch predictors, frequency).
  size_t warmup = 2'000;
  // Pooled-percentile crop: measurements above this quantile are dropped
  // from both classes before the t-test, removing interrupt/scheduler tail
  // noise exactly as dudect's threshold filtering does.
  double percentile_crop = 0.95;
};

struct TimingAuditResult {
  double t_stat = 0.0;       // Welch's t between the cropped classes
  size_t kept_fixed = 0;     // samples surviving the crop, fixed class
  size_t kept_adversarial = 0;
  // dudect's decision rule: |t| beyond ~10 cannot be produced by
  // measurement noise; it requires a data-dependent timing path.
  bool Leaks(double threshold = 10.0) const {
    return (t_stat < 0 ? -t_stat : t_stat) > threshold;
  }
};

// Welch's unequal-variance t statistic. Exposed for tests; returns 0 when
// either sample is degenerate (fewer than 2 points or zero variance in both).
double WelchT(const std::vector<double>& a, const std::vector<double>& b);

// Runs `op` under a randomized interleave of the two input classes
// (`adversarial == false` is the fixed class) and returns the t statistic
// over the cropped timing populations. The schedule is drawn from SecureRng
// so class order cannot correlate with slow environmental drift.
TimingAuditResult RunTimingAudit(const std::function<void(bool adversarial)>& op,
                                 const TimingAuditOptions& options = {});

// One check audited up to `max_attempts` times (at least once); returns the
// t statistic that decides it. `attempt` runs one audit and returns its t.
// Every check keeps the attempt with the smallest |t|: a real leak
// reproduces on every attempt, while a scheduler burst that fakes one does
// not. A check that must not leak stops at its first clean attempt
// (|t| <= threshold); a positive control (`want_leak`) stops at its first
// leaking one, so it must leak on every attempt it runs.
double RetryTimingAudit(const std::function<double()>& attempt, int max_attempts,
                        bool want_leak, double threshold = 10.0);

}  // namespace vdp

#endif  // SRC_COMMON_CT_CHECK_H_
