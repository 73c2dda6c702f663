// stream_soak: the bounded-memory streaming soak behind the stream-1m CI
// job. Generates --uploads client bundles one chunk at a time, feeds them
// into a streaming VerifyBackend through the rvalue Submit fast path while
// an incremental per-proof oracle (ValidateClientUpload + a running product
// fold) scores the same uploads in this process, then fails loudly if
//
//   * the backend's verdict (accepted set, rendered rejection reasons, or
//     commitment products) differs from the oracle in any bit, or
//   * the process's peak RSS (VmHWM) exceeds --rss-limit-mb.
//
// The point is the conjunction: the stream dispatcher's in-flight window is
// only worth having if the verdict stays bit-identical to the buffered
// per-proof path while memory stays flat, no matter how long the stream
// runs or how the fleet misbehaves (--fault injects verify_server faults
// into a private loopback fleet for the remote backend).
//
// Emits a vdp.runlog/v1 run-log whose footer carries mem.rss_hwm_kb, so the
// memory ceiling is checkable from the committed log alone.
//
// Usage:
//   stream_soak [--uploads N] [--backend per-proof|sharded|remote]
//               [--shard-capacity N] [--window N]
//               [--endpoints N] [--fault <mode>:<id|all>] [--tamper-every K]
//               [--rss-limit-mb M] [--metrics-out PATH] [--scenario NAME]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/timer.h"
#include "src/core/client.h"
#include "src/net/server_process.h"
#include "src/obs/runlog.h"
#include "src/verify/factory.h"

namespace {

// The 64-bit toy group: small enough that a million sigma proofs are cheap
// to make and check, registered end-to-end (wire dispatch included) so the
// remote path runs the real serialization.
using G = vdp::ModP64;

struct SoakArgs {
  size_t uploads = 1'000'000;
  std::string backend = "sharded";
  size_t shard_capacity = 4096;
  size_t window = 0;  // 0 = dispatcher default (two shards per lane)
  size_t endpoints = 2;
  std::string fault;
  size_t tamper_every = 0;  // 0 = clean stream
  size_t rss_limit_mb = 0;  // 0 = report but do not enforce
  std::string metrics_out;
  std::string scenario;

  static std::optional<SoakArgs> Parse(int argc, char** argv) {
    SoakArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      const char* value = nullptr;
      if (flag == "--uploads" && (value = next())) {
        args.uploads = std::strtoull(value, nullptr, 10);
      } else if (flag == "--backend" && (value = next())) {
        args.backend = value;
      } else if (flag == "--shard-capacity" && (value = next())) {
        args.shard_capacity = std::strtoull(value, nullptr, 10);
      } else if (flag == "--window" && (value = next())) {
        args.window = std::strtoull(value, nullptr, 10);
      } else if (flag == "--endpoints" && (value = next())) {
        args.endpoints = std::strtoull(value, nullptr, 10);
      } else if (flag == "--fault" && (value = next())) {
        args.fault = value;
      } else if (flag == "--tamper-every" && (value = next())) {
        args.tamper_every = std::strtoull(value, nullptr, 10);
      } else if (flag == "--rss-limit-mb" && (value = next())) {
        args.rss_limit_mb = std::strtoull(value, nullptr, 10);
      } else if (flag == "--metrics-out" && (value = next())) {
        args.metrics_out = value;
      } else if (flag == "--scenario" && (value = next())) {
        args.scenario = value;
      } else {
        std::fprintf(stderr, "stream_soak: unknown or incomplete flag '%s'\n",
                     flag.c_str());
        return std::nullopt;
      }
    }
    if (args.uploads == 0) {
      std::fprintf(stderr, "stream_soak: --uploads must be >= 1\n");
      return std::nullopt;
    }
    if (args.scenario.empty()) {
      args.scenario = "stream-soak/" + args.backend +
                      (args.fault.empty() ? "" : "+fault");
    }
    return args;
  }
};

// The incremental per-proof oracle: the buffered reference verdict, computed
// upload-by-upload so the comparison itself never holds the corpus.
struct Oracle {
  std::vector<size_t> accepted;
  std::vector<std::string> reasons;
  std::vector<std::vector<G::Element>> products;

  Oracle(const vdp::ProtocolConfig& config)
      : products(config.num_provers,
                 std::vector<G::Element>(config.num_bins, G::Identity())) {}

  void Score(const vdp::ClientUploadMsg<G>& upload, size_t index,
             const vdp::ProtocolConfig& config, const vdp::Pedersen<G>& ped) {
    std::string why;
    if (!vdp::ValidateClientUpload(upload, index, config, ped, &why)) {
      reasons.push_back("client " + std::to_string(index) + ": " + why);
      return;
    }
    accepted.push_back(index);
    for (size_t k = 0; k < products.size(); ++k) {
      for (size_t m = 0; m < products[k].size(); ++m) {
        products[k][m] = G::Mul(products[k][m], upload.commitments[k][m]);
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = SoakArgs::Parse(argc, argv);
  if (!parsed.has_value()) {
    return 2;
  }
  const SoakArgs args = *parsed;

  vdp::ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 1;
  config.num_bins = 2;
  config.session_id = "stream-soak";
  config.stream_shard_capacity = args.shard_capacity;
  config.stream_max_inflight_shards = args.window;

  // A private loopback fleet (with the requested fault spec) for the remote
  // backend; must outlive the backend's last Finish.
  std::unique_ptr<vdp::net::LoopbackFleet> fleet;
  auto kind = vdp::VerifyBackendKindFromName(args.backend);
  if (!kind.has_value()) {
    std::fprintf(stderr, "stream_soak: unknown backend '%s'\n", args.backend.c_str());
    return 2;
  }
  switch (*kind) {
    case vdp::VerifyBackendKind::kPerProof:
      break;
    case vdp::VerifyBackendKind::kSharded:
      config.num_verify_shards = 8;
      break;
    case vdp::VerifyBackendKind::kRemote:
      fleet = std::make_unique<vdp::net::LoopbackFleet>(args.endpoints, args.fault);
      fleet->ApplyTo(&config);
      break;
  }

  // Run-log plumbing: every writer (this process and any verify_server
  // reached through $VDP_METRICS_OUT) must append.
  const char* out_env = std::getenv("VDP_METRICS_OUT");
  std::string log_path = !args.metrics_out.empty() ? args.metrics_out
                         : out_env != nullptr && out_env[0] != '\0'
                             ? out_env
                             : "STREAM_soak.jsonl";
  if (out_env == nullptr || out_env[0] == '\0' || !args.metrics_out.empty()) {
    setenv("VDP_METRICS_OUT", log_path.c_str(), 1);
  }
  auto log = vdp::obs::RunLogWriter::Open(log_path, /*append=*/true);

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  vdp::ThreadPool pool(hw);
  vdp::Pedersen<G> ped;
  vdp::SecureRng rng("stream-soak");

  if (log != nullptr) {
    vdp::obs::RunHeader header;
    header.tool = "stream_soak";
    header.group = G::Name();
    header.n_uploads = args.uploads;
    header.num_shards = config.num_verify_shards;
    header.pool_threads = hw;
    header.remote_endpoints = config.remote_verifiers.size();
    header.notes = "capacity=" + std::to_string(args.shard_capacity) +
                   " window=" + std::to_string(args.window) +
                   (args.fault.empty() ? "" : " fault=" + args.fault) +
                   (args.tamper_every == 0
                        ? ""
                        : " tamper-every=" + std::to_string(args.tamper_every));
    log->Header(header);
  }

  auto backend = vdp::MakeVerifyBackend<G>(*kind, config, ped);
  vdp::VerifyOptions options;
  options.pool = &pool;

  std::printf("stream_soak: %zu uploads -> %s (capacity=%zu window=%zu)\n",
              args.uploads, args.backend.c_str(), args.shard_capacity, args.window);

  Oracle oracle(config);
  vdp::Stopwatch total_timer;
  backend->Start(options);

  // Generate-score-submit in chunks: the only full-corpus state this process
  // keeps is the oracle's accepted-index list, never the uploads themselves.
  constexpr size_t kChunk = 8192;
  const size_t progress_stride = args.uploads >= 8 ? args.uploads / 8 : args.uploads;
  std::vector<vdp::ClientUploadMsg<G>> chunk;
  for (size_t base = 0; base < args.uploads; base += kChunk) {
    const size_t count = std::min(kChunk, args.uploads - base);
    chunk.clear();
    chunk.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const size_t index = base + i;
      auto upload = vdp::MakeClientBundle<G>(index % 2, index, config, ped, rng).upload;
      if (args.tamper_every != 0 && index % args.tamper_every == args.tamper_every - 1) {
        upload.bin_proofs[0].z0 += G::Scalar::One();
      }
      oracle.Score(upload, index, config, ped);
      chunk.push_back(std::move(upload));
    }
    backend->Submit(std::move(chunk));
    if ((base + count) % progress_stride < kChunk || base + count == args.uploads) {
      const vdp::VerifyProgress p = backend->Progress();
      std::printf("  %9zu ingested  shards cut=%zu done=%zu inflight=%zu "
                  "buffered=%zu  backpressure=%.1f ms  rss_hwm=%llu KiB\n",
                  p.uploads_ingested, p.shards_cut, p.shards_done,
                  p.inflight_shards, p.buffered_uploads, p.backpressure_wait_ms,
                  static_cast<unsigned long long>(vdp::obs::CurrentRssHwmKb()));
    }
  }
  auto report = backend->Finish();
  const double total_ms = total_timer.ElapsedMillis();

  const uint64_t rss_kb = vdp::obs::CurrentRssHwmKb();
  std::printf("%s: %zu accepted / %zu rejected over %zu shards in %.1f ms "
              "(peak rss %llu KiB)\n",
              report.backend.c_str(), report.accepted.size(),
              report.rejections.size(), report.num_shards, total_ms,
              static_cast<unsigned long long>(rss_kb));

  if (log != nullptr) {
    log->Stages(args.scenario, report.backend, report.timings.Stages(), total_ms,
                {{"accepted", static_cast<double>(report.accepted.size())},
                 {"rejected", static_cast<double>(report.rejections.size())},
                 {"num_shards", static_cast<double>(report.num_shards)},
                 {"pool_threads", static_cast<double>(hw)},
                 {"rss_hwm_kb", static_cast<double>(rss_kb)}});
    log->Metrics(vdp::obs::MetricsRegistry::Global().Snapshot());
    log->Footer();
    std::printf("wrote %s\n", log->path().c_str());
  }

  // The verdict gate: every divergence from the oracle is fatal, listed
  // before exiting so CI logs show what went wrong.
  int rc = 0;
  if (report.accepted != oracle.accepted) {
    std::fprintf(stderr,
                 "FATAL: accepted set diverged from the per-proof oracle "
                 "(%zu vs %zu entries)\n",
                 report.accepted.size(), oracle.accepted.size());
    rc = 1;
  }
  if (report.RenderedReasons() != oracle.reasons) {
    std::fprintf(stderr, "FATAL: rejection reasons diverged from the oracle\n");
    rc = 1;
  }
  if (!report.has_products()) {
    std::fprintf(stderr, "FATAL: report carries no commitment products\n");
    rc = 1;
  } else if (report.commitment_products != oracle.products) {
    std::fprintf(stderr, "FATAL: commitment products diverged from the oracle\n");
    rc = 1;
  }

  // The memory gate: VmHWM is the whole process's peak, so the bound covers
  // corpus generation and the oracle too -- conservatively strict.
  if (args.rss_limit_mb != 0 && rss_kb > args.rss_limit_mb * 1024) {
    std::fprintf(stderr, "FATAL: peak RSS %llu KiB exceeds --rss-limit-mb %zu\n",
                 static_cast<unsigned long long>(rss_kb), args.rss_limit_mb);
    rc = rc == 0 ? 3 : rc;
  }
  if (rc == 0) {
    std::printf("OK: verdict bit-identical to the per-proof oracle%s\n",
                args.rss_limit_mb != 0 ? ", RSS within bound" : "");
  }
  return rc;
}
