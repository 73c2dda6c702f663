// Host probes sampled beside every round, so a reader can tell a slow or
// crowded host from a regression in the program.
//
//   host.ref_ms  wall time of a fixed single-thread integer loop. On an idle,
//                steady host it reads the same every time; when the machine
//                under a shared VM slows down, it rises with the round times.
//   host.par     process CPU time / wall time of the same loop run on two
//                threads at once: ~2.0 when two cores are really available,
//                towards 1.0 when the host time-slices them.
//
// Neither probe touches the program under test.
#ifndef VDPBENCH_HOST_PROBE_H_
#define VDPBENCH_HOST_PROBE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace vdpbench {

// Process CPU time (all threads) in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A fixed dependent chain of integer multiply/xor-shift steps. The result is
// returned so the compiler cannot drop the loop.
inline uint64_t ReferenceLoop(uint64_t steps, uint64_t x) {
  for (uint64_t i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

inline constexpr uint64_t kReferenceSteps = uint64_t{1} << 23;

struct HostSample {
  double ref_ms = 0;
  double par = 0;
};

inline HostSample ProbeHost() {
  static volatile uint64_t sink = 0;
  HostSample sample;

  const double t0 = WallSeconds();
  sink = sink + ReferenceLoop(kReferenceSteps, sink + 1);
  sample.ref_ms = (WallSeconds() - t0) * 1e3;

  uint64_t out[2] = {0, 0};
  const double cpu0 = ProcessCpuSeconds();
  const double w0 = WallSeconds();
  std::thread a([&out] { out[0] = ReferenceLoop(kReferenceSteps, 3); });
  std::thread b([&out] { out[1] = ReferenceLoop(kReferenceSteps, 5); });
  a.join();
  b.join();
  const double wall = WallSeconds() - w0;
  sample.par = wall > 0 ? (ProcessCpuSeconds() - cpu0) / wall : 0;
  sink = sink + out[0] + out[1];
  return sample;
}

}  // namespace vdpbench

#endif  // VDPBENCH_HOST_PROBE_H_
