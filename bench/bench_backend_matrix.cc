// The backend matrix: every registered VerifyBackend timed on the same 4096
// uploads, decisions cross-checked so a speedup can never come from a wrong
// verdict.
//
// This is the perf contract of the VerifyBackend API (src/verify/): the
// factory's three execution strategies are interchangeable in outcome, so
// the only thing this bench is allowed to show differing is wall clock.
// Expected shape on real hardware: sharded beats per-proof by the PR-1
// RLC/MSM factor plus thread-level fan-out; remote pays wire, HMAC, and
// process overhead it can only win back with physical cores.
//
// The matrix also sweeps group backends: the primary group (modp-256, the
// committed-baseline rows) runs the full pool sweep, and every group named
// in $VDP_BENCH_GROUPS (default: ed25519) adds an all-cores matrix whose
// rows carry a "<group>/" scenario prefix -- the ms/proof column across
// groups is the headline number for the fixed-base/kernel arithmetic work.
//
// Emits a vdp.runlog/v1 run-log (BENCH_backend_matrix.jsonl, or
// $VDP_METRICS_OUT) for tools/metrics_report: a header with the honest
// concurrency story, one stages line per (scenario, pool size, backend),
// and the process's metric counters. The thread-pool sweep (1, 2, all
// cores) makes the scaling story explicit instead of leaving it to whatever
// machine CI happened to land on -- the unsuffixed scenario rows are the
// all-cores runs. The committed BENCH_backend_matrix.jsonl is one such
// run-log, and metrics_report --compare trends every row against it.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/timer.h"
#include "src/group/registry.h"
#include "src/net/server_process.h"
#include "src/obs/runlog.h"
#include "src/verify/factory.h"

namespace {

constexpr size_t kUploads = 4096;

template <vdp::PrimeOrderGroup G>
vdp::ProtocolConfig ConfigFor(vdp::VerifyBackendKind kind) {
  vdp::ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 1;
  config.num_bins = 1;
  config.session_id = "bench-backend-matrix";
  switch (kind) {
    case vdp::VerifyBackendKind::kPerProof:
      break;
    case vdp::VerifyBackendKind::kSharded:
      config.num_verify_shards = 8;
      break;
    case vdp::VerifyBackendKind::kRemote:
      // A real loopback verify_server fleet (shared; spawned on first use):
      // socket transport + per-frame HMAC on top of the sharded row. The
      // servers pick the group up from the wire setup frame, so one fleet
      // serves every group in the sweep.
      config.num_verify_shards = 8;
      vdp::net::SharedLoopbackFleet(4).ApplyTo(&config);
      break;
  }
  return config;
}

// One group's full matrix. `prefix` tags the runlog scenario rows ("" for
// the primary group, "<group>/" for sweep groups); non-primary groups run
// all-cores only so the sweep stays affordable on small CI runners.
template <vdp::PrimeOrderGroup G>
int RunMatrix(vdp::obs::RunLogWriter* log, const std::vector<size_t>& pool_sizes,
              size_t hw, const std::string& prefix) {
  const vdp::ProtocolConfig base = ConfigFor<G>(vdp::VerifyBackendKind::kPerProof);
  vdp::Pedersen<G> ped;
  vdp::SecureRng rng("bench-backend-matrix");
  std::printf("building %zu uploads (%s)...\n", kUploads, G::Name().c_str());
  std::vector<vdp::ClientUploadMsg<G>> uploads;
  uploads.reserve(kUploads);
  for (size_t i = 0; i < kUploads; ++i) {
    uploads.push_back(vdp::MakeClientBundle<G>(i % 2, i, base, ped, rng).upload);
  }
  // One untimed remote run first, so the shared fleet's cold start (spawn,
  // first handshakes, the servers' setup for this group) stays out of the
  // first timed remote row.
  vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kRemote,
                            ConfigFor<G>(vdp::VerifyBackendKind::kRemote), ped)
      ->VerifyAll(uploads);

  // Two regimes: an all-valid stream (the RLC batch accepts in one check)
  // and a stream with one tampered proof (sharding confines the per-proof
  // fallback to one shard of 512).
  for (const char* scenario : {"clean", "one-tampered"}) {
    if (std::string(scenario) == "one-tampered") {
      uploads[kUploads / 3].bin_proofs[0].z0 += G::Scalar::One();
    }
    std::printf("-- group: %s scenario: %s --\n", G::Name().c_str(), scenario);
    std::vector<size_t> reference_accepted;
    bool have_reference = false;
    for (size_t pool_size : pool_sizes) {
      vdp::ThreadPool pool(pool_size);
      vdp::VerifyOptions options;
      options.pool = &pool;
      // The all-cores rows keep the bare scenario name so metrics_report
      // --compare lines them up against the committed baseline.
      const std::string row_scenario =
          pool_size == hw ? prefix + scenario
                          : prefix + scenario + "@pool" + std::to_string(pool_size);
      vdp::Stopwatch timer;
      for (vdp::VerifyBackendKind kind : vdp::AllVerifyBackendKinds()) {
        auto backend = vdp::MakeVerifyBackend<G>(kind, ConfigFor<G>(kind), ped);
        timer.Reset();
        auto report = backend->VerifyAll(uploads, options);
        const double elapsed_ms = timer.ElapsedMillis();
        std::printf("%-12s pool=%-3zu %9.1f ms  %7.4f ms/proof (%zu accepted, %zu shards)\n",
                    report.backend.c_str(), pool_size, elapsed_ms, elapsed_ms / kUploads,
                    report.accepted.size(), report.num_shards);
        if (log != nullptr) {
          log->Stages(row_scenario, report.backend, report.timings.Stages(), elapsed_ms,
                      {{"accepted", static_cast<double>(report.accepted.size())},
                       {"num_shards", static_cast<double>(report.num_shards)},
                       {"pool_threads", static_cast<double>(pool_size)}});
        }
        if (!have_reference) {
          reference_accepted = report.accepted;
          have_reference = true;
        } else if (report.accepted != reference_accepted) {
          std::fprintf(stderr, "FATAL: backend %s diverged from the per-proof oracle\n",
                       report.backend.c_str());
          return 1;
        }

        // The streaming lifecycle on the all-cores rows: same corpus fed in
        // 512-upload chunks through the bounded in-flight window
        // (Start/AddBulk/Finish), so the cost of streaming vs one-shot is a
        // row pair in the same log. "+stream" rows are new relative to the
        // committed baselines, which only pins the one-shot rows.
        if (pool_size == hw) {
          timer.Reset();
          backend->Start(options);
          for (size_t from = 0; from < uploads.size(); from += 512) {
            const size_t to = std::min(uploads.size(), from + 512);
            std::vector<vdp::ClientUploadMsg<G>> chunk(uploads.begin() + from,
                                                       uploads.begin() + to);
            backend->AddBulk(std::move(chunk));
          }
          auto streamed = backend->Finish();
          const double stream_ms = timer.ElapsedMillis();
          std::printf("%-12s stream   %9.1f ms (%zu accepted, %zu shards)\n",
                      streamed.backend.c_str(), stream_ms, streamed.accepted.size(),
                      streamed.num_shards);
          if (log != nullptr) {
            log->Stages(prefix + scenario + "+stream", streamed.backend,
                        streamed.timings.Stages(), stream_ms,
                        {{"accepted", static_cast<double>(streamed.accepted.size())},
                         {"num_shards", static_cast<double>(streamed.num_shards)},
                         {"pool_threads", static_cast<double>(pool_size)}});
          }
          if (streamed.accepted != reference_accepted) {
            std::fprintf(stderr,
                         "FATAL: streaming %s diverged from the per-proof oracle\n",
                         streamed.backend.c_str());
            return 1;
          }
        }
      }
    }
  }
  return 0;
}

std::vector<std::string> SweepGroups() {
  const char* env = std::getenv("VDP_BENCH_GROUPS");
  const std::string raw = (env != nullptr && *env != '\0') ? env : "ed25519";
  std::vector<std::string> names;
  size_t start = 0;
  while (start <= raw.size()) {
    size_t comma = raw.find(',', start);
    if (comma == std::string::npos) {
      comma = raw.size();
    }
    std::string name = raw.substr(start, comma - start);
    if (!name.empty() && name != "none") {
      names.push_back(name);
    }
    start = comma + 1;
  }
  return names;
}

}  // namespace

int main() {
  // The concurrency sweep: 1 core, 2 cores, the whole machine. Deduplicated
  // so a 1- or 2-core CI runner does not time the same shape twice.
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> pool_sizes{1};
  if (hw >= 2) {
    pool_sizes.push_back(2);
  }
  if (hw > 2) {
    pool_sizes.push_back(hw);
  }

  // The verify_server subprocesses the remote backend drives write into the
  // same file through $VDP_METRICS_OUT, so EVERY writer
  // -- this process included -- must hold an O_APPEND descriptor (append
  // mode); a plain "w" stream would interleave its private offset with the
  // subprocess appends and corrupt lines.
  const char* out_env = std::getenv("VDP_METRICS_OUT");
  const std::string log_path = out_env != nullptr && out_env[0] != '\0'
                                   ? out_env
                                   : "BENCH_backend_matrix.jsonl";
  if (out_env == nullptr || out_env[0] == '\0') {
    std::remove(log_path.c_str());  // fresh default file for this run
    setenv("VDP_METRICS_OUT", log_path.c_str(), 1);
  }
  auto log = vdp::obs::RunLogWriter::Open(log_path, /*append=*/true);
  if (log != nullptr) {
    vdp::obs::RunHeader header;
    header.tool = "bench_backend_matrix";
    header.group = vdp::ModP256::Name();
    header.n_uploads = kUploads;
    header.num_shards = 8;
    header.pool_threads = hw;
    header.remote_endpoints = 4;
    header.notes =
        "pool sweep: 1/2/all cores; unsuffixed rows = all cores; sweep groups "
        "($VDP_BENCH_GROUPS) add all-cores rows under a '<group>/' prefix";
    log->Header(header);
  }

  // The primary group: full pool sweep, unprefixed rows (the committed
  // baseline contract).
  int rc = RunMatrix<vdp::ModP256>(log.get(), pool_sizes, hw, "");
  if (rc != 0) {
    return rc;
  }

  // The group sweep: all-cores matrix per named group.
  const std::vector<size_t> all_cores{hw};
  for (const std::string& name : SweepGroups()) {
    if (name == vdp::ModP256::Name()) {
      continue;  // already measured as the primary
    }
    const bool known = vdp::DispatchRegisteredGroup(name, [&](auto tag) {
      using G = typename decltype(tag)::Group;
      rc = RunMatrix<G>(log.get(), all_cores, hw, G::Name() + "/");
    });
    if (!known) {
      std::fprintf(stderr, "VDP_BENCH_GROUPS names no compiled-in group: %s\n", name.c_str());
      return 1;
    }
    if (rc != 0) {
      return rc;
    }
  }

  if (log != nullptr) {
    log->Metrics(vdp::obs::MetricsRegistry::Global().Snapshot());
    log->Footer();  // peak RSS, for trending memory alongside wall clock
    std::printf("\nwrote %s\n", log->path().c_str());
  }
  return 0;
}
