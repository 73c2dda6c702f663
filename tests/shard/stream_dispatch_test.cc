// VerifyBackend's stream (src/verify/backend.h), tested against a synthetic
// executor so the pipeline mechanics -- capacity-based shard cutting, the
// bounded in-flight window, out-of-order lane completion, bulk ingest,
// discard/reuse, and the one-shot VerifyAll on the same stream -- are
// checked without any cryptography in the loop. Bit-identity of real
// verdicts is the conformance suite's job
// (tests/verify/backend_conformance_test.cc); this file pins the plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/verify/backend.h"

namespace vdp {
namespace {

using G = ModP256;

// Synthesizes verdicts from shard coordinates alone: global index i is
// rejected iff i % 7 == 3. Deterministic, so any partition of the same
// stream must combine to the same report.
class FakeExecutor final : public ShardExecutor<G> {
 public:
  explicit FakeExecutor(size_t lanes, int sleep_ms = 0, int slow_shard = -1)
      : lanes_(lanes), sleep_ms_(sleep_ms), slow_shard_(slow_shard) {}

  size_t lanes() const override { return lanes_; }

  ShardResult<G> ExecuteShard(size_t /*lane*/, const ShardPayload<G>& shard) override {
    const size_t running = concurrent_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t prev = max_concurrent_.load(std::memory_order_relaxed);
    while (running > prev &&
           !max_concurrent_.compare_exchange_weak(prev, running, std::memory_order_relaxed)) {
    }
    if (sleep_ms_ > 0 &&
        (slow_shard_ < 0 || shard.shard_index == static_cast<size_t>(slow_shard_))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
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
    concurrent_.fetch_sub(1, std::memory_order_relaxed);
    shards_executed_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  void CloseLane(size_t /*lane*/) override {
    lanes_closed_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t shards_executed() const { return shards_executed_.load(); }
  size_t max_concurrent() const { return max_concurrent_.load(); }
  size_t lanes_closed() const { return lanes_closed_.load(); }

 private:
  size_t lanes_;
  int sleep_ms_;
  int slow_shard_;
  std::atomic<size_t> concurrent_{0};
  std::atomic<size_t> max_concurrent_{0};
  std::atomic<size_t> shards_executed_{0};
  std::atomic<size_t> lanes_closed_{0};
};

VerifyOptions NoProducts() {
  VerifyOptions options;
  options.compute_products = false;  // the fake synthesizes no products
  return options;
}

// A backend that owns `executor`: streams cut `capacity`-upload shards under a
// `window`-shard in-flight window, VerifyAll cuts `one_shot_shards`. The
// stream is started without products.
std::unique_ptr<VerifyBackend<G>> FakeBackend(FakeExecutor* executor, size_t capacity,
                                              size_t window, size_t one_shot_shards = 1) {
  ProtocolConfig config;
  config.stream_shard_capacity = capacity;
  config.stream_max_inflight_shards = window;
  auto backend = std::make_unique<VerifyBackend<G>>(
      "fake", config, std::unique_ptr<ShardExecutor<G>>(executor), one_shot_shards);
  backend->Start(NoProducts());
  return backend;
}

// The expected verdict of the fake over global indices [0, n).
void ExpectFakeVerdict(const VerifyReport<G>& report, size_t n) {
  std::vector<size_t> accepted;
  std::vector<std::string> reasons;
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      reasons.push_back("client " + std::to_string(i) + ": synthetic");
    } else {
      accepted.push_back(i);
    }
  }
  EXPECT_EQ(report.accepted, accepted);
  EXPECT_EQ(report.RenderedReasons(), reasons);
  EXPECT_EQ(report.total_uploads, n);
}

void ExpectZeroProgress(const VerifyProgress& p) {
  EXPECT_EQ(p.uploads_ingested, 0u);
  EXPECT_EQ(p.shards_cut, 0u);
  EXPECT_EQ(p.shards_done, 0u);
  EXPECT_EQ(p.inflight_shards, 0u);
  EXPECT_EQ(p.buffered_uploads, 0u);
  EXPECT_EQ(p.accepted_so_far, 0u);
  EXPECT_EQ(p.rejected_so_far, 0u);
  EXPECT_EQ(p.backpressure_wait_ms, 0.0);
}

TEST(StreamDispatchTest, CutsShardsAtCapacityAndCombinesInShardOrder) {
  auto* executor = new FakeExecutor(/*lanes=*/2, /*sleep_ms=*/20, /*slow_shard=*/0);
  auto backend = FakeBackend(executor, 4, 4);
  // 18 uploads at capacity 4: shards of 4/4/4/4/2. Shard 0 sleeps, so later
  // shards retire first -- the combiner must still order by shard index.
  for (size_t i = 0; i < 18; ++i) {
    backend->Add(ClientUploadMsg<G>{});
  }
  VerifyReport<G> report = backend->Finish();
  EXPECT_EQ(report.num_shards, 5u);
  ExpectFakeVerdict(report, 18);
  EXPECT_EQ(executor->shards_executed(), 5u);
  EXPECT_EQ(executor->lanes_closed(), 2u);
  EXPECT_FALSE(report.has_products());
}

TEST(StreamDispatchTest, WindowBoundsInflightAndRecordsBackpressure) {
  auto* executor = new FakeExecutor(/*lanes=*/1, /*sleep_ms=*/5);
  auto backend = FakeBackend(executor, 1, 2);
  const uint64_t waits_before = obs::GlobalHistogram(obs::kBackpressureWaitUs)->count();
  // Capacity 1 seals a shard per Add; a single 5ms lane against a window of
  // 2 forces the producer to block, and the window must never be exceeded.
  for (size_t i = 0; i < 12; ++i) {
    backend->Add(ClientUploadMsg<G>{});
    const VerifyProgress p = backend->Progress();
    EXPECT_LE(p.inflight_shards, 2u);
    EXPECT_LE(p.buffered_uploads, 3u);  // window + the fill buffer
  }
  const double wait_ms = backend->Progress().backpressure_wait_ms;
  EXPECT_GT(wait_ms, 0.0);
  EXPECT_GT(obs::GlobalHistogram(obs::kBackpressureWaitUs)->count(), waits_before);
  VerifyReport<G> report = backend->Finish();
  ExpectFakeVerdict(report, 12);
  EXPECT_EQ(report.num_shards, 12u);
  EXPECT_LE(executor->max_concurrent(), 1u);
  // Finish books the producer's wait as verify time, not ingest time.
  EXPECT_GE(report.timings.verify_ms, wait_ms);
}

TEST(StreamDispatchTest, AddBulkMatchesPerUploadAdd) {
  // Same stream twice: one upload at a time, then in bulk chunks whose sizes
  // straddle the capacity (3 < 5, 8 > 5, 4 < 5). Reports must be identical.
  auto a = FakeBackend(new FakeExecutor(2), 5, 4);
  for (size_t i = 0; i < 15; ++i) {
    a->Add(ClientUploadMsg<G>{});
  }
  VerifyReport<G> a_report = a->Finish();

  auto b = FakeBackend(new FakeExecutor(2), 5, 4);
  for (size_t chunk : {3, 8, 4}) {
    std::vector<ClientUploadMsg<G>> uploads(chunk);
    b->AddBulk(std::move(uploads));
  }
  VerifyReport<G> b_report = b->Finish();

  EXPECT_EQ(a_report.accepted, b_report.accepted);
  EXPECT_EQ(a_report.RenderedReasons(), b_report.RenderedReasons());
  EXPECT_EQ(a_report.num_shards, b_report.num_shards);
  EXPECT_EQ(a_report.total_uploads, b_report.total_uploads);
}

TEST(StreamDispatchTest, ProgressCountsTheWholePipeline) {
  auto backend = FakeBackend(new FakeExecutor(1), 4, 8);
  for (size_t i = 0; i < 10; ++i) {
    backend->Add(ClientUploadMsg<G>{});
  }
  const VerifyProgress mid = backend->Progress();
  EXPECT_EQ(mid.uploads_ingested, 10u);
  EXPECT_EQ(mid.shards_cut, 2u);  // 8 sealed; 2 still filling
  EXPECT_GE(mid.buffered_uploads, 2u);
  VerifyReport<G> report = backend->Finish();
  EXPECT_EQ(report.num_shards, 3u);
  ExpectFakeVerdict(report, 10);
}

TEST(StreamDispatchTest, StartDiscardsOpenStreamAndBackendIsReusable) {
  auto backend = FakeBackend(new FakeExecutor(2, /*sleep_ms=*/5), 2, 2);
  for (size_t i = 0; i < 9; ++i) {
    backend->Add(ClientUploadMsg<G>{});
  }
  backend->Start(NoProducts());
  // A fresh stream restarts global indices at 0 and sees none of the
  // discarded stream's shards.
  for (size_t i = 0; i < 6; ++i) {
    backend->Add(ClientUploadMsg<G>{});
  }
  VerifyReport<G> report = backend->Finish();
  EXPECT_EQ(report.num_shards, 3u);
  ExpectFakeVerdict(report, 6);
}

TEST(StreamDispatchTest, OneShotPartitionUsesHistoricalBoundaries) {
  auto* executor = new FakeExecutor(3);
  auto backend = FakeBackend(executor, 4, 4, /*one_shot_shards=*/3);
  std::vector<ClientUploadMsg<G>> uploads(11);
  VerifyReport<G> report = backend->VerifyAll(uploads, NoProducts());
  // 11 uploads over 3 shards: n*s/shards boundaries give 3/4/4, whatever the
  // stream capacity.
  EXPECT_EQ(report.num_shards, 3u);
  ExpectFakeVerdict(report, 11);
  EXPECT_EQ(executor->lanes_closed(), 3u);
  EXPECT_GE(report.timings.verify_ms, 0.0);
}

TEST(StreamDispatchTest, OneShotWindowHoldsEveryShard) {
  // One slow lane and a stream window of 1: a stream of 6 shards would block
  // the producer five times, but VerifyAll's window is its shard count.
  auto backend = FakeBackend(new FakeExecutor(1, /*sleep_ms=*/5), 1, 1,
                             /*one_shot_shards=*/6);
  const uint64_t waits_before = obs::GlobalHistogram(obs::kBackpressureWaitUs)->count();
  std::vector<ClientUploadMsg<G>> uploads(6);
  VerifyReport<G> report = backend->VerifyAll(uploads, NoProducts());
  EXPECT_EQ(report.num_shards, 6u);
  ExpectFakeVerdict(report, 6);
  EXPECT_EQ(obs::GlobalHistogram(obs::kBackpressureWaitUs)->count(), waits_before);
}

TEST(StreamDispatchTest, VerifyAllDiscardsOpenStream) {
  auto backend = FakeBackend(new FakeExecutor(2, /*sleep_ms=*/2), 2, 2,
                             /*one_shot_shards=*/2);
  for (size_t i = 0; i < 7; ++i) {
    backend->Add(ClientUploadMsg<G>{});  // abandoned mid-stream
  }
  std::vector<ClientUploadMsg<G>> uploads(5);
  VerifyReport<G> oneshot = backend->VerifyAll(uploads, NoProducts());
  EXPECT_EQ(oneshot.num_shards, 2u);
  ExpectFakeVerdict(oneshot, 5);
  // The abandoned uploads went with the stream: the next Finish verifies a
  // fresh, empty one.
  VerifyReport<G> after = backend->Finish();
  EXPECT_EQ(after.total_uploads, 0u);
  EXPECT_EQ(after.num_shards, 0u);
  EXPECT_TRUE(after.accepted.empty());
  EXPECT_TRUE(after.rejections.empty());
}

TEST(StreamDispatchTest, ProgressReadsZeroAfterEitherPath) {
  auto backend = FakeBackend(new FakeExecutor(2), 3, 2, /*one_shot_shards=*/3);
  ExpectZeroProgress(backend->Progress());
  for (size_t i = 0; i < 10; ++i) {
    backend->Add(ClientUploadMsg<G>{});
  }
  EXPECT_EQ(backend->Progress().uploads_ingested, 10u);
  ExpectFakeVerdict(backend->Finish(), 10);
  ExpectZeroProgress(backend->Progress());

  std::vector<ClientUploadMsg<G>> uploads(8);
  ExpectFakeVerdict(backend->VerifyAll(uploads, NoProducts()), 8);
  ExpectZeroProgress(backend->Progress());
  EXPECT_EQ(obs::GlobalGauge(obs::kStreamInflightShards)->value(), 0);
  EXPECT_EQ(obs::GlobalGauge(obs::kStreamBufferedUploads)->value(), 0);
  EXPECT_EQ(obs::GlobalGauge(obs::kShardQueueDepth)->value(), 0);
}

}  // namespace
}  // namespace vdp
