// Adversarial interleavings for VerifyBackend's stream, written for the
// tsan CI job (-DVDP_TSAN=ON): monitor threads hammer Progress(), the
// backend's any-thread-safe observer, while a producer drives streams
// through Add / Finish / Start and one-shot VerifyAll runs at full speed.
// Functionally the tests assert the fake-executor verdict, but their real
// teeth are under ThreadSanitizer, where any read or reset of the stream's
// shared state outside the backend's mutex (Finish's reset racing a
// monitor, a lane retiring a shard during the teardown) is a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/verify/backend.h"

namespace vdp {
namespace {

using G = ModP256;

// Same synthetic-verdict shape as stream_dispatch_test.cc: global index i is
// rejected iff i % 7 == 3, so any partition combines to one known report.
class FakeExecutor final : public ShardExecutor<G> {
 public:
  explicit FakeExecutor(size_t lanes, int sleep_us = 0)
      : lanes_(lanes), sleep_us_(sleep_us) {}

  size_t lanes() const override { return lanes_; }

  ShardResult<G> ExecuteShard(size_t /*lane*/, const ShardPayload<G>& shard) override {
    if (sleep_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    }
    ShardResult<G> result;
    result.shard_index = shard.shard_index;
    result.base = shard.base;
    result.count = shard.count();
    for (size_t i = 0; i < shard.count(); ++i) {
      const size_t global = shard.base + i;
      if (global % 7 == 3) {
        result.rejections.emplace_back(global, "synthetic");
      } else {
        result.accepted.push_back(global);
      }
    }
    return result;
  }

 private:
  size_t lanes_;
  int sleep_us_;
};

// A backend that owns `executor`, with `capacity`-upload stream shards, a
// `window`-shard in-flight window and `one_shot_shards` for VerifyAll.
std::unique_ptr<VerifyBackend<G>> FakeBackend(FakeExecutor* executor, size_t capacity,
                                              size_t window, size_t one_shot_shards = 1) {
  ProtocolConfig config;
  config.stream_shard_capacity = capacity;
  config.stream_max_inflight_shards = window;
  return std::make_unique<VerifyBackend<G>>(
      "fake", config, std::unique_ptr<ShardExecutor<G>>(executor), one_shot_shards);
}

VerifyOptions NoProducts() {
  VerifyOptions options;
  options.compute_products = false;
  return options;
}

void ExpectFakeVerdict(const VerifyReport<G>& report, size_t n) {
  size_t accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    accepted += (i % 7 == 3) ? 0 : 1;
  }
  EXPECT_EQ(report.accepted.size(), accepted);
  EXPECT_EQ(report.total_uploads, n);
}

// Spins observer threads against a backend until `stop` flips.
std::vector<std::thread> StartMonitors(const VerifyBackend<G>* backend,
                                       std::atomic<bool>* stop, size_t n = 2) {
  std::vector<std::thread> monitors;
  monitors.reserve(n);
  for (size_t m = 0; m < n; ++m) {
    monitors.emplace_back([backend, stop] {
      while (!stop->load(std::memory_order_acquire)) {
        const VerifyProgress p = backend->Progress();
        // Internal consistency only: successive snapshots may straddle
        // stream boundaries, but a snapshot itself must never tear.
        EXPECT_LE(p.shards_done, p.shards_cut);
        EXPECT_EQ(p.shards_done + p.inflight_shards, p.shards_cut);
        EXPECT_EQ(p.accepted_so_far + p.rejected_so_far + p.buffered_uploads,
                  p.uploads_ingested);
      }
    });
  }
  return monitors;
}

void StopMonitors(std::vector<std::thread>* monitors, std::atomic<bool>* stop) {
  stop->store(true, std::memory_order_release);
  for (std::thread& t : *monitors) {
    t.join();
  }
}

// Finish() moves the lanes' results out and resets the stream state while
// monitors read the same state under the lock from other threads. Rapid
// back-to-back streams make the gap between the lanes joining and the next
// stream's first Add wide enough that the monitors always land in it.
TEST(StreamDispatchStressTest, MonitorsRaceFinishAcrossStreams) {
  auto backend = FakeBackend(new FakeExecutor(/*lanes=*/2), 3, 2);
  backend->Start(NoProducts());
  std::atomic<bool> stop{false};
  std::vector<std::thread> monitors = StartMonitors(backend.get(), &stop);

  for (size_t stream = 0; stream < 40; ++stream) {
    const size_t n = 10 + (stream % 13);
    for (size_t i = 0; i < n; ++i) {
      backend->Add(ClientUploadMsg<G>{});
    }
    VerifyReport<G> report = backend->Finish();
    ExpectFakeVerdict(report, n);
  }

  StopMonitors(&monitors, &stop);
}

// Start() discards an open stream: it drops the queued shards, joins lanes
// that are still executing, and resets the shared state; monitors must never
// observe the teardown half-done. Alternates discarded and finished streams
// to cover the reuse path both ways.
TEST(StreamDispatchStressTest, MonitorsRaceAbortAndReuse) {
  auto backend = FakeBackend(new FakeExecutor(/*lanes=*/2, /*sleep_us=*/200), 2, 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> monitors = StartMonitors(backend.get(), &stop);

  for (size_t round = 0; round < 25; ++round) {
    backend->Start(NoProducts());
    for (size_t i = 0; i < 9; ++i) {
      backend->Add(ClientUploadMsg<G>{});
    }
    backend->Start(NoProducts());
    const size_t n = 6 + (round % 5);
    for (size_t i = 0; i < n; ++i) {
      backend->Add(ClientUploadMsg<G>{});
    }
    VerifyReport<G> report = backend->Finish();
    ExpectFakeVerdict(report, n);
  }

  StopMonitors(&monitors, &stop);
}

// Backpressure path under observation: a window of 1 against a slow lane
// keeps the producer parked in Enqueue's wait (which accumulates the wait
// under the mutex) while monitors read the same accumulator.
TEST(StreamDispatchStressTest, MonitorsRaceBackpressureWait) {
  auto backend = FakeBackend(new FakeExecutor(/*lanes=*/1, /*sleep_us=*/500), 1, 1);
  backend->Start(NoProducts());
  std::atomic<bool> stop{false};
  std::vector<std::thread> monitors = StartMonitors(backend.get(), &stop);

  for (size_t stream = 0; stream < 4; ++stream) {
    for (size_t i = 0; i < 30; ++i) {
      backend->Add(ClientUploadMsg<G>{});
    }
    EXPECT_GT(backend->Progress().backpressure_wait_ms, 0.0);
    VerifyReport<G> report = backend->Finish();
    ExpectFakeVerdict(report, 30);
  }

  StopMonitors(&monitors, &stop);
}

// One backend, two paths: the producer alternates one-shot VerifyAll runs
// with streamed Add/Finish while monitors poll Progress(). Both paths open,
// drain and reset the same stream state, and a VerifyAll also discards the
// stream left open before it.
TEST(StreamDispatchStressTest, MonitorsRaceVerifyAllAndStreams) {
  auto backend = FakeBackend(new FakeExecutor(/*lanes=*/2, /*sleep_us=*/100), 2, 2,
                             /*one_shot_shards=*/3);
  std::atomic<bool> stop{false};
  std::vector<std::thread> monitors = StartMonitors(backend.get(), &stop);

  for (size_t round = 0; round < 30; ++round) {
    std::vector<ClientUploadMsg<G>> uploads(7 + (round % 9));
    ExpectFakeVerdict(backend->VerifyAll(uploads, NoProducts()), uploads.size());
    const size_t n = 5 + (round % 11);
    for (size_t i = 0; i < n; ++i) {
      backend->Add(ClientUploadMsg<G>{});
    }
    if (round % 3 == 2) {
      continue;  // left open: the next VerifyAll discards it
    }
    ExpectFakeVerdict(backend->Finish(), n);
  }

  StopMonitors(&monitors, &stop);
}

}  // namespace
}  // namespace vdp
