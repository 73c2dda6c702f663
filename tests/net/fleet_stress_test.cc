// The fleet driver under adversarial interleavings, written for the tsan CI
// job: the remote socket fleet executes a streamed run while other threads
// read Progress/PartialReport and rip the fleet-health report out
// mid-stream, a close-faulted server turns every one of its shards into a
// reconnect -- a reconnect storm with concurrent observers -- and a
// verify_workers backend spawns its fleet mid-stream under an observer.
// Verdicts must still match the deterministic expectation; under
// ThreadSanitizer any unsynchronized access in the executors' shared report
// state or the dispatcher is a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

ProtocolConfig BaseConfig() {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31: keeps upload construction fast
  config.num_provers = 2;
  config.num_bins = 3;
  config.session_id = "fleet-stress-test";
  return config;
}

// Honest uploads plus one of each rejection class (same recipe as
// remote_fleet_test.cc) so the expected verdict is fixed.
std::vector<ClientUploadMsg<G>> Corpus(const ProtocolConfig& config,
                                       const Pedersen<G>& ped, size_t n) {
  SecureRng rng("fleet-stress-corpus");
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < n; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, ped, rng)
            .upload);
  }
  uploads[2].bin_proofs[0].z0 += S::One();  // invalid OR proof
  uploads[5].sum_randomness += S::One();    // breaks the one-hot opening
  return uploads;
}

// Streams `uploads` through `executor` while monitor threads hammer the
// observer API and a report thief calls take_report() concurrently.
template <typename TakeReportFn>
VerifyReport<G> StreamWithObservers(const ProtocolConfig& config,
                                    ShardExecutor<G>* executor,
                                    std::vector<ClientUploadMsg<G>> uploads,
                                    const TakeReportFn& take_report) {
  StreamDispatchOptions options;
  options.shard_capacity = 3;
  options.max_inflight_shards = 2;
  options.compute_products = true;
  StreamDispatcher<G> dispatcher(config, executor, options);

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const VerifyProgress p = dispatcher.Progress();
      EXPECT_LE(p.shards_done, p.shards_cut);
      (void)dispatcher.PartialReport();
    }
  });
  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      take_report();
    }
  });

  for (ClientUploadMsg<G>& upload : uploads) {
    dispatcher.Add(std::move(upload));
  }
  VerifyReport<G> report = dispatcher.Finish();
  stop.store(true, std::memory_order_release);
  monitor.join();
  thief.join();
  return report;
}

void ExpectVerdict(const VerifyReport<G>& report, size_t n) {
  EXPECT_EQ(report.total_uploads, n);
  EXPECT_EQ(report.accepted.size(), n - 2);
  EXPECT_EQ(report.rejections.size(), 2u);
}

TEST(FleetStressTest, RemoteFleetReconnectStormWithConcurrentObservers) {
  net::LoopbackFleet fleet(2, /*fault=*/"close:0");  // server 0 drops every task
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  Pedersen<G> ped;
  auto uploads = Corpus(config, ped, 15);

  RemoteFleetOptions options;
  options.connect_timeout_ms = 5'000;
  options.handshake_timeout_ms = 5'000;
  options.shard_timeout_ms = 10'000;
  options.reconnect_backoff_ms = 1;
  options.max_attempts_per_shard = 3;
  RemoteVerifierFleet<G> verifier(config, ped, options);
  VerifyReport<G> report = StreamWithObservers(
      config, &verifier, std::move(uploads), [&verifier] { (void)verifier.TakeReport(); });
  ExpectVerdict(report, 15);
}

// Streams `uploads` through the public backend API the way a server
// frontend would: Add on this thread, Progress from a monitor thread.
VerifyReport<G> BackendStreamWithObserver(VerifyBackend<G>* backend,
                                          std::vector<ClientUploadMsg<G>> uploads) {
  VerifyOptions options;
  options.stream_shard_capacity = 3;
  backend->Start(options);
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const VerifyProgress p = backend->Progress();
      EXPECT_LE(p.shards_done, p.shards_cut);
    }
  });
  for (ClientUploadMsg<G>& upload : uploads) {
    backend->Add(std::move(upload));
  }
  VerifyReport<G> report = backend->Finish();
  stop.store(true, std::memory_order_release);
  monitor.join();
  return report;
}

TEST(FleetStressTest, RemoteBackendProgressWhileStreaming) {
  net::LoopbackFleet fleet(2);
  ProtocolConfig config = BaseConfig();
  fleet.ApplyTo(&config);
  Pedersen<G> ped;
  auto uploads = Corpus(config, ped, 12);

  auto backend = MakeVerifyBackend<G>(VerifyBackendKind::kRemote, config, ped);
  ExpectVerdict(BackendStreamWithObserver(backend.get(), std::move(uploads)), 12);
}

// verify_workers: the backend spawns its own server fleet on the producer
// thread when the stream opens, while the monitor is already polling.
TEST(FleetStressTest, VerifyWorkersStreamWithConcurrentObserver) {
  ProtocolConfig config = BaseConfig();
  config.verify_workers = 2;
  Pedersen<G> ped;
  auto uploads = Corpus(config, ped, 15);

  RemoteBackend<G> backend(config, ped);
  ExpectVerdict(BackendStreamWithObserver(&backend, std::move(uploads)), 15);
  const RemoteFleetReport& report = backend.last_fleet_report();
  EXPECT_EQ(report.shards_from_remote, report.shards_total);
  EXPECT_TRUE(report.failures.empty()) << "first failure: " << report.failures[0].reason;
}

}  // namespace
}  // namespace vdp
