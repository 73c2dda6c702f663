// Remote (socket) vs in-process shard verification.
//
// Measures what the process boundary, the network hop, and the per-frame
// HMAC add: the same 4096-upload stream is validated by the in-process
// sharded backend and by a spawned loopback verify_server fleet over
// authenticated TCP sockets (src/net/). Two regimes -- a clean stream and
// one with a single tampered proof (the blame search confined to one
// shard) -- and every configuration's accept set is cross-checked against
// the in-process result, so a speedup can never come from a wrong verdict.
//
// Emits a vdp.runlog/v1 run-log (BENCH_remote_verify.jsonl, or
// $VDP_METRICS_OUT) for tools/metrics_report. The final "traced-faulty"
// scenario is the fleet observability demo: tracing on, a three-server
// fleet with one misbehaving member, so the run-log ends up holding one
// stitched span tree (driver dispatch spans + the healthy servers' own
// shard/rlc spans, rebased onto the driver's timeline) plus nonzero
// fleet.retries / fleet.blamed counters -- exactly what a real incident
// looks like, produced on demand.
//
// The interesting numbers:
//   - remote vs in-process: wire + socket + HMAC overhead on loopback (the
//     lower bound for a real network).
//   - clean vs one-tampered: the blame fallback's cost does not change
//     shape when verification is remote.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/timer.h"
#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/obs/runlog.h"
#include "src/verify/factory.h"

namespace {

using G = vdp::ModP256;
using S = G::Scalar;

}  // namespace

int main() {
  constexpr size_t kUploads = 4096;
  constexpr size_t kShards = 8;

  vdp::ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 1;
  config.num_bins = 1;
  config.session_id = "bench-remote-verify";
  config.batch_verify = true;
  config.num_verify_shards = kShards;

  vdp::Pedersen<G> ped;
  vdp::SecureRng rng("bench-remote");
  std::printf("building %zu uploads (%s)...\n", kUploads, G::Name().c_str());
  std::vector<vdp::ClientUploadMsg<G>> uploads;
  uploads.reserve(kUploads);
  for (size_t i = 0; i < kUploads; ++i) {
    uploads.push_back(vdp::MakeClientBundle<G>(i % 2, i, config, ped, rng).upload);
  }

  // One run-log for the whole fleet: this process truncates and re-opens in
  // append mode, then exports the path via $VDP_METRICS_OUT *before*
  // spawning servers, so every verify_server appends its own metric lines
  // to the same file (append-mode line writes interleave safely).
  const char* env_path = std::getenv("VDP_METRICS_OUT");
  const std::string log_path =
      env_path != nullptr && env_path[0] != '\0' ? env_path : "BENCH_remote_verify.jsonl";
  if (env_path == nullptr || env_path[0] == '\0') {
    std::remove(log_path.c_str());
    setenv("VDP_METRICS_OUT", log_path.c_str(), 1);
  }
  auto log = vdp::obs::RunLogWriter::Open(log_path, /*append=*/true);
  if (log != nullptr) {
    vdp::obs::RunHeader header;
    header.tool = "bench_remote_verify";
    header.group = G::Name();
    header.n_uploads = kUploads;
    header.num_shards = kShards;
    header.remote_endpoints = 4;
    header.notes =
        "wire ShardTask -> verify_server fleet over authenticated loopback "
        "sockets -> wire ShardResult -> combine";
    log->Header(header);
  }

  std::printf("spawning loopback verify_server fleet...\n");
  vdp::net::LoopbackFleet fleet(4);

  vdp::ThreadPool& pool = vdp::GlobalPool();
  vdp::Stopwatch timer;

  auto emit = [&](const std::string& scenario, const std::string& backend,
                  const vdp::VerifyTimings& timings, double elapsed_ms, size_t accepted,
                  size_t recovered, size_t failures) {
    if (log != nullptr) {
      log->Stages(scenario, backend, timings.Stages(), elapsed_ms,
                  {{"accepted", static_cast<double>(accepted)},
                   {"recovered_in_process", static_cast<double>(recovered)},
                   {"failures", static_cast<double>(failures)}});
    }
  };

  std::vector<size_t> inproc_accepted;
  for (const char* scenario : {"clean", "one-tampered"}) {
    if (std::string(scenario) == "one-tampered") {
      uploads[kUploads / 3].bin_proofs[0].z0 += S::One();
    }
    std::printf("-- scenario: %s --\n", scenario);

    // In-process baseline (the sharded backend on the global thread pool).
    vdp::VerifyOptions options;
    options.pool = &pool;
    auto sharded = vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kSharded, config, ped);
    timer.Reset();
    auto inproc = sharded->VerifyAll(uploads, options);
    const double inproc_ms = timer.ElapsedMillis();
    inproc_accepted = inproc.accepted;
    // Row keys are "<mode>:<servers>", the committed baseline's naming.
    emit(scenario, "in-process:0", inproc.timings, inproc_ms, inproc.accepted.size(),
         0, 0);
    std::printf("in-process            : %8.1f ms (%zu accepted)\n", inproc_ms,
                inproc.accepted.size());

    const std::vector<std::string> endpoints = fleet.Endpoints();
    for (size_t servers : {2, 4}) {
      vdp::ProtocolConfig remote_config = config;
      remote_config.remote_verifiers.assign(endpoints.begin(),
                                            endpoints.begin() + servers);
      remote_config.remote_auth_key_hex = fleet.key_hex();
      auto verifier =
          vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kRemote, remote_config, ped);
      timer.Reset();
      auto verdict = verifier->VerifyAll(uploads);
      const double elapsed_ms = timer.ElapsedMillis();
      const vdp::RemoteFleetReport report = verifier->last_fleet_report();
      emit(scenario, "remote:" + std::to_string(servers), verdict.timings, elapsed_ms,
           verdict.accepted.size(), report.shards_recovered_in_process,
           report.failures.size());
      std::printf("remote %zu sockets     : %8.1f ms (%zu accepted, %zu failures)\n",
                  servers, elapsed_ms, verdict.accepted.size(), report.failures.size());
      if (verdict.accepted != inproc.accepted) {
        std::fprintf(stderr, "FATAL: remote verdict diverged from in-process\n");
        return 1;
      }
    }
  }

  // The observability acceptance run: tracing on, a fresh three-server fleet
  // whose server 0 answers every task with the wrong shard index. The driver
  // blames it, retries elsewhere, and the run-log ends with the stitched
  // span tree plus the fleet counters a real incident would show.
  {
    std::printf("-- scenario: traced-faulty (3 servers, server 0 wrongshard) --\n");
    vdp::net::LoopbackFleet faulty(3, /*fault=*/"wrongshard:0");
    vdp::ProtocolConfig remote_config = config;
    faulty.ApplyTo(&remote_config);

    vdp::obs::TraceCollector tracer;
    vdp::VerifyOptions traced;
    traced.tracer = &tracer;
    traced.trace_parent = tracer.RootContext();

    auto verifier =
        vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kRemote, remote_config, ped);
    timer.Reset();
    auto verdict = verifier->VerifyAll(uploads, traced);
    const double elapsed_ms = timer.ElapsedMillis();
    const vdp::RemoteFleetReport report = verifier->last_fleet_report();
    emit("traced-faulty", "remote:3", verdict.timings, elapsed_ms,
         verdict.accepted.size(), report.shards_recovered_in_process,
         report.failures.size());
    if (log != nullptr) {
      log->Spans(tracer.TakeSpans());
    }
    std::printf("remote 3 sockets      : %8.1f ms (%zu accepted, %zu failures, "
                "%zu retries blamed)\n",
                elapsed_ms, verdict.accepted.size(), report.failures.size(),
                report.failures.size());
    if (verdict.accepted != inproc_accepted) {
      std::fprintf(stderr, "FATAL: traced remote verdict diverged\n");
      return 1;
    }
    if (report.failures.empty()) {
      std::fprintf(stderr, "FATAL: wrongshard fault produced no blame report\n");
      return 1;
    }
  }

  if (log != nullptr) {
    log->Metrics(vdp::obs::MetricsRegistry::Global().Snapshot());
    std::printf("\nwrote %s\n", log_path.c_str());
  }
  return 0;
}
