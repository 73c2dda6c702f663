// verify_server: one shard-verification daemon of the fleet pipeline
// (src/net/remote_fleet.h) -- on another machine, or spawned on loopback by
// the driver itself for ProtocolConfig::verify_workers.
//
// Per connection (all frames per src/wire/wire_format.h over the socket):
//   1. server -> driver: kServerHello (wire version, pid, --id, nonce)
//   2. driver -> server: kClientHello (nonce)
//      -- both sides derive the session MAC key (src/net/auth.h); every
//         frame from here on is MAC-authenticated and sequence-bound --
//   3. driver -> server: kSetup (group name, protocol config, Pedersen bases)
//   4. server -> driver: kSetupAck (echo of the setup digest: key
//      confirmation + parameter binding)
//   5. repeat: driver sends kTask, server answers kResult (or kError with a
//      diagnostic when it refuses the task); EOF ends the connection.
//
// Admin plane: when the FIRST authenticated frame is kHealthProbe or
// kStatsRequest instead of kSetup, the connection is served as an
// introspection session (src/net/introspect.h): probes are answered with
// uptime / installed setup digest / in-flight shard count / live session
// count, stats requests with a vdp.stats/v1 metrics+spans dump. No setup is
// required, so a verifier that was never handed parameters still answers.
// Replies ride the admin direction bytes and counters (src/net/auth.h).
//
// Connections are served one thread each and are independent sessions; the
// server is stateless across connections. Verification itself is the same
// VerifyShard (src/shard/shard_result.h) every other backend runs, so
// results are bit-identical by construction.
//
// Usage:
//   verify_server --listen tcp:0.0.0.0:7000 --auth-key-file /etc/vdp/fleet.key
//                 [--id N] [--once] [--watch-stdin] [--fault <mode>:<id|all>]
//                 [--metrics-out FILE]
//
// --listen       tcp:<host>:<port> (port 0 = ephemeral) or unix:<path>. The
//                bound endpoint is announced as "LISTENING <endpoint>" on
//                stdout, so supervisors and tests can discover an ephemeral
//                port.
// --auth-key-file  file holding the fleet's pre-shared secret as hex
//                (whitespace ignored; >= 16 bytes decoded). Falls back to
//                $VDP_REMOTE_AUTH_KEY when the flag is absent.
// --id           server id stamped into hellos/acks for blame reports.
// --once         serve a single connection, then exit (tests).
// --watch-stdin  exit when stdin reaches EOF: a test or supervisor that
//                holds a pipe to our stdin takes the fleet down with it,
//                even if it crashes without cleanup.
// --metrics-out  append the vdp.runlog/v1 JSONL run-log here (src/obs/):
//                a header at startup, a counters snapshot on every session
//                setup ack, and a footer (peak RSS) on SIGTERM/SIGINT.
//                $VDP_METRICS_OUT is the env twin.
// --health-interval  also flush a metrics snapshot to the run-log every N
//                milliseconds, so a daemon between sessions still trends.
// --fault        test hook (env VDP_SERVER_FAULT is honored too, so servers
//                a driver spawns for verify_workers inherit it): mode one
//                of crash (exit 134 on task), garbage (answer a task with
//                an unauthenticated frame), hang (never answer), close
//                (drop the connection mid-shard), wrongshard (answer with a
//                well-formed result for the wrong shard identity),
//                staledigest (ack the setup with a wrong digest). Applies
//                when <id|all> matches --id.
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/net/auth.h"
#include "src/net/introspect.h"
#include "src/net/socket.h"
#include "src/obs/runlog.h"
#include "src/shard/shard_result.h"
#include "src/wire/group_dispatch.h"
#include "src/wire/wire_convert.h"

namespace vdp {
namespace {

// --metrics-out / $VDP_METRICS_OUT run-log; the writer is thread-safe, so
// detached per-connection threads share it. Never freed (daemon lifetime).
obs::RunLogWriter* g_metrics_log = nullptr;

// Flushes the process-wide counters into the run-log (no-op when no
// --metrics-out). Called on every kSetupAck and on clean exits, so a daemon
// that is killed still leaves the counters as of its last session start.
void FlushMetrics() {
  if (g_metrics_log != nullptr) {
    g_metrics_log->Metrics(obs::MetricsRegistry::Global().Snapshot());
  }
}

// Process-wide liveness state the admin plane reports. Written by the
// per-connection threads, read by any admin session.
struct ServerState {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  uint64_t server_id = 0;
  std::atomic<uint64_t> inflight_shards{0};  // tasks inside VerifyShard right now
  std::atomic<int64_t> active_sessions{0};   // authenticated connections alive
  std::mutex digest_mutex;
  Sha256::Digest last_digest{};  // most recently installed setup; all-zero before any
};
ServerState g_state;

uint64_t UptimeMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - g_state.start)
                                   .count());
}

// Recent finished spans for kStatsReply, a small mutex-guarded ring. Tasks
// append copies of the spans they ship back to the driver.
constexpr size_t kRecentSpanCap = 64;
std::mutex g_spans_mutex;
std::vector<obs::SpanRecord> g_recent_spans;

void RememberSpans(const std::vector<obs::SpanRecord>& spans) {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  for (const obs::SpanRecord& span : spans) {
    g_recent_spans.push_back(span);
  }
  if (g_recent_spans.size() > kRecentSpanCap) {
    g_recent_spans.erase(g_recent_spans.begin(),
                         g_recent_spans.end() - static_cast<long>(kRecentSpanCap));
  }
}

std::vector<obs::SpanRecord> RecentSpans() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return g_recent_spans;
}

enum class FaultMode { kNone, kCrash, kGarbage, kHang, kClose, kWrongShard, kStaleDigest };

FaultMode ParseFault(const std::string& spec, size_t server_id) {
  size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return FaultMode::kNone;
  }
  std::string target = spec.substr(colon + 1);
  if (target != "all" && target != std::to_string(server_id)) {
    return FaultMode::kNone;
  }
  std::string mode = spec.substr(0, colon);
  if (mode == "crash") {
    return FaultMode::kCrash;
  }
  if (mode == "garbage") {
    return FaultMode::kGarbage;
  }
  if (mode == "hang") {
    return FaultMode::kHang;
  }
  if (mode == "close") {
    return FaultMode::kClose;
  }
  if (mode == "wrongshard") {
    return FaultMode::kWrongShard;
  }
  if (mode == "staledigest") {
    return FaultMode::kStaleDigest;
  }
  return FaultMode::kNone;
}

void SendError(net::AuthChannel* channel, const std::string& message) {
  wire::WireError error;
  error.message = message;
  channel->Write(wire::FrameType::kError, error.Serialize());
}

// The introspection loop of one authenticated admin session. `first` is the
// already-read first frame; the loop keeps answering so a watch client can
// hold one connection. The hang/crash/close faults apply to probes exactly
// like tasks -- the fleet-health CI job degrades a hung server through this
// path.
void ServeAdmin(net::AuthChannel* channel, wire::Frame first, FaultMode fault) {
  constexpr int kAdminIdleTimeoutMs = 60'000;
  wire::Frame frame = std::move(first);
  for (;;) {
    switch (fault) {
      case FaultMode::kCrash:
        _exit(134);
      case FaultMode::kHang:
        for (;;) {
          sleep(1);
        }
      case FaultMode::kClose:
        return;
      default:
        break;
    }
    if (frame.type == wire::FrameType::kHealthProbe) {
      auto probe = wire::WireHealthProbe::Deserialize(frame.payload);
      if (!probe.has_value()) {
        SendError(channel, "malformed health probe");
        return;
      }
      wire::WireHealthReply reply;
      reply.nonce = probe->nonce;
      reply.server_id = g_state.server_id;
      reply.uptime_ms = UptimeMs();
      {
        std::lock_guard<std::mutex> lock(g_state.digest_mutex);
        reply.params_digest = g_state.last_digest;
      }
      // Fault hook comparing against the public all-zero sentinel; the
      // digest itself is wire-visible, so timing is not a concern here.
      if (fault == FaultMode::kStaleDigest &&
          reply.params_digest != Sha256::Digest{}) {  // vdp-lint: allow(ct-compare)
        reply.params_digest[0] ^= 0xFF;  // lie about the installed epoch
      }
      reply.inflight_shards = g_state.inflight_shards.load(std::memory_order_relaxed);
      reply.queue_depth = static_cast<uint64_t>(
          std::max<int64_t>(0, g_state.active_sessions.load(std::memory_order_relaxed)));
      if (channel->Write(wire::FrameType::kHealthReply, reply.Serialize()) !=
          wire::WriteStatus::kOk) {
        return;
      }
      obs::GlobalCounter(obs::kAdminProbesServed)->Increment();
    } else if (frame.type == wire::FrameType::kStatsRequest) {
      auto request = wire::WireStatsRequest::Deserialize(frame.payload);
      if (!request.has_value()) {
        SendError(channel, "malformed stats request");
        return;
      }
      wire::WireStatsReply reply;
      reply.server_id = g_state.server_id;
      reply.stats_json = net::StatsToJson(
          obs::MetricsRegistry::Global().Snapshot(),
          request->include_spans == 1 ? RecentSpans() : std::vector<obs::SpanRecord>{});
      if (channel->Write(wire::FrameType::kStatsReply, reply.Serialize()) !=
          wire::WriteStatus::kOk) {
        return;
      }
      obs::GlobalCounter(obs::kAdminStatsServed)->Increment();
    } else {
      SendError(channel, "unexpected frame type on admin session");
      return;
    }
    if (channel->Read(&frame, kAdminIdleTimeoutMs) != wire::ReadStatus::kOk) {
      return;  // client done (EOF), idle, or tampered stream
    }
  }
}

// The task loop of one authenticated session.
template <PrimeOrderGroup G>
void ServeTasks(net::AuthChannel* channel, const wire::WireSetup& setup,
                FaultMode fault) {
  auto session = wire::SessionFromWire<G>(setup);
  if (!session.has_value()) {
    SendError(channel, "setup rejected: generators do not decode for " + setup.group_name);
    return;
  }
  const ProtocolConfig config = session->first;
  const Pedersen<G> ped = std::move(session->second);
  const Sha256::Digest digest = setup.Digest();

  // A driver holds its connection only for the duration of one stream and
  // sends tasks continuously within it, so a long silence means the driver
  // is gone (vanished without a FIN: powered off, partitioned). The idle
  // timeout bounds how long a dead session can pin this thread and fd;
  // SO_KEEPALIVE (src/net/socket.cc) backstops it at the TCP layer.
  constexpr int kIdleTimeoutMs = 10 * 60 * 1000;

  for (;;) {
    wire::Frame frame;
    wire::ReadStatus status = channel->Read(&frame, kIdleTimeoutMs);
    if (status != wire::ReadStatus::kOk) {
      return;  // EOF (driver done), idle/dead driver, tampered stream, or broken socket
    }
    if (frame.type != wire::FrameType::kTask) {
      SendError(channel, "unexpected frame type");
      return;
    }
    auto task = wire::WireShardTask::Deserialize(frame.payload);
    if (!task.has_value()) {
      SendError(channel, "malformed task payload");
      return;
    }
    if (!ConstantTimeEqual(BytesView(task->params_digest.data(), task->params_digest.size()),
                           BytesView(digest.data(), digest.size()))) {
      SendError(channel, "task params digest does not match session setup");
      continue;  // refuse this task; the session itself is still good
    }
    switch (fault) {
      case FaultMode::kCrash:
        _exit(134);
      case FaultMode::kGarbage: {
        // Not a valid MAC: the driver must classify this as an auth
        // failure, never feed it to the combiner.
        uint8_t junk[64];
        memset(junk, 0xAB, sizeof(junk));
        wire::WriteFrame(channel->fd(), wire::FrameType::kResult,
                         BytesView(junk, sizeof(junk)));
        return;
      }
      case FaultMode::kHang:
        for (;;) {
          sleep(1);
        }
      case FaultMode::kClose:
        return;  // connection dropped mid-shard
      default:
        break;
    }

    // When the driver is tracing, record this task's spans against a local
    // collector whose epoch is task receipt; the driver rebases them onto
    // its own timeline when it adopts them from the result.
    obs::TraceCollector tracer;
    const bool tracing = task->trace_id != 0;
    const obs::TraceContext parent{task->trace_id, task->parent_span_id};

    std::vector<ClientUploadMsg<G>> uploads = wire::UploadsFromWire<G>(*task);
    g_state.inflight_shards.fetch_add(1, std::memory_order_relaxed);
    ShardResult<G> result =
        VerifyShard(config, ped, uploads.data(), uploads.size(), task->base,
                    task->shard_index, /*pool=*/nullptr, task->compute_products == 1,
                    tracing ? &tracer : nullptr, parent);
    g_state.inflight_shards.fetch_sub(1, std::memory_order_relaxed);
    if (fault == FaultMode::kWrongShard) {
      // Well-formed, authentically MACed -- but for the wrong shard
      // identity. The driver's result-matches-task check must catch it.
      result.shard_index += 1;
    }
    wire::WireShardResult wire_result = wire::ResultToWire<G>(digest, result);
    if (tracing) {
      std::vector<obs::SpanRecord> spans = tracer.TakeSpans();
      RememberSpans(spans);  // the admin plane serves these as "recent spans"
      wire_result.spans = wire::SpansToWire(spans);
    }
    if (channel->Write(wire::FrameType::kResult, wire_result.Serialize()) !=
        wire::WriteStatus::kOk) {
      return;  // driver hung up mid-result
    }
  }
}

void ServeConnection(int fd, Bytes auth_key, size_t server_id, FaultMode fault) {
  constexpr int kHandshakeTimeoutMs = 15'000;

  wire::WireServerHello server_hello;
  server_hello.pid = static_cast<uint64_t>(getpid());
  server_hello.server_id = server_id;
  SecureRng::FromEntropy().FillBytes(server_hello.nonce.data(), server_hello.nonce.size());
  if (wire::WriteFrame(fd, wire::FrameType::kServerHello, server_hello.Serialize(),
                       kHandshakeTimeoutMs) != wire::WriteStatus::kOk) {
    net::CloseFd(&fd);
    return;
  }

  wire::Frame frame;
  if (wire::ReadFrame(fd, &frame, kHandshakeTimeoutMs) != wire::ReadStatus::kOk ||
      frame.type != wire::FrameType::kClientHello) {
    net::CloseFd(&fd);
    return;
  }
  auto client_hello = wire::WireClientHello::Deserialize(frame.payload);
  if (!client_hello.has_value() || client_hello->version != wire::kWireVersion) {
    net::CloseFd(&fd);
    return;
  }

  net::SessionKey key = net::DeriveSessionKey(
      auth_key, BytesView(server_hello.nonce.data(), server_hello.nonce.size()),
      BytesView(client_hello->nonce.data(), client_hello->nonce.size()));
  net::AuthChannel channel(fd, key, /*is_client=*/false);

  // First authenticated frame decides the session kind: kSetup opens a
  // verification session, an admin frame opens an introspection session (no
  // setup needed -- an idle, never-configured verifier still answers). A
  // bad MAC either way is a peer with the wrong fleet secret -- drop the
  // connection without serving it.
  if (channel.Read(&frame, kHandshakeTimeoutMs) != wire::ReadStatus::kOk) {
    net::CloseFd(&fd);
    return;
  }
  if (net::IsAdminFrameType(frame.type)) {
    ServeAdmin(&channel, std::move(frame), fault);
    net::CloseFd(&fd);
    return;
  }
  if (frame.type != wire::FrameType::kSetup) {
    net::CloseFd(&fd);
    return;
  }
  auto setup = wire::WireSetup::Deserialize(frame.payload);
  if (!setup.has_value()) {
    SendError(&channel, "malformed setup frame");
    net::CloseFd(&fd);
    return;
  }

  wire::WireSetupAck ack;
  ack.params_digest = setup->Digest();
  ack.server_id = server_id;
  if (fault == FaultMode::kStaleDigest) {
    ack.params_digest[0] ^= 0xFF;  // a server stuck on another session's setup
  }
  if (channel.Write(wire::FrameType::kSetupAck, ack.Serialize(), kHandshakeTimeoutMs) !=
      wire::WriteStatus::kOk) {
    net::CloseFd(&fd);
    return;
  }
  {
    // The honest digest, even under the staledigest fault: the fault lies
    // on the wire, not in the server's own bookkeeping.
    std::lock_guard<std::mutex> lock(g_state.digest_mutex);
    g_state.last_digest = setup->Digest();
  }
  FlushMetrics();  // one counters snapshot per session start

  g_state.active_sessions.fetch_add(1, std::memory_order_relaxed);
  bool known_group = wire::DispatchGroup(setup->group_name, [&](auto tag) {
    using G = typename decltype(tag)::Group;
    ServeTasks<G>(&channel, *setup, fault);
  });
  if (!known_group) {
    SendError(&channel, "unknown group backend: " + setup->group_name);
  }
  g_state.active_sessions.fetch_sub(1, std::memory_order_relaxed);
  net::CloseFd(&fd);
}

// --watch-stdin: block on stdin until EOF, then take the whole process
// down. The spawning side holds the write end of a pipe; process death --
// clean or not -- closes it.
void WatchStdin() {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      _exit(0);
    }
    uint8_t buf[256];
    ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
    if (n == 0) {
      _exit(0);  // supervisor is gone
    }
    if (n < 0 && errno != EINTR && errno != EAGAIN) {
      _exit(0);
    }
  }
}

// SIGTERM/SIGINT are blocked in every thread (the mask is installed before
// any thread spawns); this dedicated thread consumes one synchronously and
// stamps the run-log footer before exiting -- the async-signal-safe way to
// run non-signal-safe shutdown work (RunLogWriter takes a mutex).
void AwaitShutdownSignal(sigset_t set) {
  int sig = 0;
  while (sigwait(&set, &sig) != 0) {
  }
  FlushMetrics();
  if (g_metrics_log != nullptr) {
    g_metrics_log->Footer();  // peak RSS; makes daemon memory trendable
  }
  _exit(0);
}

int ServerMain(int argc, char** argv) {
  net::IgnoreSigpipe();
  std::string listen_spec = "tcp:127.0.0.1:0";
  std::string key_file;
  std::string fault_spec;
  std::string metrics_out;
  size_t server_id = 0;
  long health_interval_ms = 0;
  bool once = false;
  bool watch_stdin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "verify_server: --listen needs an endpoint\n");
        return 2;
      }
      listen_spec = v;
    } else if (arg == "--auth-key-file") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "verify_server: --auth-key-file needs a path\n");
        return 2;
      }
      key_file = v;
    } else if (arg == "--id") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "verify_server: --id needs a number\n");
        return 2;
      }
      server_id = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--fault") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "verify_server: --fault needs <mode>:<id|all>\n");
        return 2;
      }
      fault_spec = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "verify_server: --metrics-out needs a path\n");
        return 2;
      }
      metrics_out = v;
    } else if (arg == "--health-interval") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "verify_server: --health-interval needs milliseconds\n");
        return 2;
      }
      health_interval_ms = std::strtol(v, nullptr, 10);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--watch-stdin") {
      watch_stdin = true;
    } else {
      std::fprintf(stderr, "verify_server: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  std::string key_hex;
  if (!key_file.empty()) {
    FILE* f = std::fopen(key_file.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "verify_server: cannot read auth key file %s\n",
                   key_file.c_str());
      return 2;
    }
    char c;
    while (std::fread(&c, 1, 1, f) == 1) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        key_hex.push_back(c);
      }
    }
    std::fclose(f);
  } else if (const char* env = std::getenv("VDP_REMOTE_AUTH_KEY")) {
    key_hex = env;
  }
  auto auth_key = HexDecode(key_hex);
  if (!auth_key.has_value() || auth_key->size() < net::kMinAuthKeyBytes) {
    std::fprintf(stderr,
                 "verify_server: no usable auth key (--auth-key-file or "
                 "$VDP_REMOTE_AUTH_KEY, hex, >= %zu bytes)\n",
                 net::kMinAuthKeyBytes);
    return 2;
  }

  auto endpoint = net::ParseEndpoint(listen_spec);
  if (!endpoint.has_value()) {
    std::fprintf(stderr, "verify_server: bad --listen endpoint '%s'\n",
                 listen_spec.c_str());
    return 2;
  }
  auto listener = net::Listener::Open(*endpoint);
  if (!listener.has_value()) {
    std::fprintf(stderr, "verify_server: cannot listen on %s\n", listen_spec.c_str());
    return 1;
  }

  // Announce the bound endpoint (ephemeral tcp port resolved) for
  // supervisors and the test spawn helper.
  std::printf("LISTENING %s\n", net::FormatEndpoint(listener->bound()).c_str());
  std::fflush(stdout);

  // --metrics-out wins over $VDP_METRICS_OUT; either opens in append mode so
  // a fleet of servers (or a restarted one) shares a file cleanly.
  auto metrics_log = metrics_out.empty() ? obs::RunLogWriter::FromEnv()
                                         : obs::RunLogWriter::Open(metrics_out, true);
  if (metrics_log != nullptr) {
    g_metrics_log = metrics_log.release();  // daemon lifetime, shared by threads
    obs::RunHeader header;
    header.tool = "verify_server";
    header.notes = "id=" + std::to_string(server_id) + " listen=" +
                   net::FormatEndpoint(listener->bound()) +
                   (fault_spec.empty() ? "" : " fault=" + fault_spec);
    g_metrics_log->Header(header);
  }

  FaultMode fault = ParseFault(fault_spec, server_id);
  if (fault == FaultMode::kNone) {
    if (const char* env = std::getenv("VDP_SERVER_FAULT")) {
      fault = ParseFault(env, server_id);
    }
  }
  g_state.server_id = server_id;

  // Block SIGTERM/SIGINT process-wide BEFORE any thread spawns (threads
  // inherit the mask), then hand both to the footer-stamping sigwait thread.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGTERM);
  sigaddset(&shutdown_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);
  std::thread(AwaitShutdownSignal, shutdown_signals).detach();

  if (watch_stdin) {
    std::thread(WatchStdin).detach();
  }
  if (health_interval_ms > 0) {
    std::thread([health_interval_ms] {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(health_interval_ms));
        FlushMetrics();
      }
    }).detach();
  }

  for (;;) {
    int fd = listener->Accept(/*timeout_ms=*/-1);
    if (fd < 0) {
      // Transient accept failures (fd exhaustion under a connection spike,
      // EMFILE while sessions drain) must not take the whole verifier down
      // -- in-flight authenticated sessions keep running; back off and
      // keep accepting.
      std::fprintf(stderr, "verify_server: accept failed (retrying)\n");
      usleep(100 * 1000);
      continue;
    }
    if (once) {
      ServeConnection(fd, *auth_key, server_id, fault);
      FlushMetrics();
      return 0;
    }
    std::thread(ServeConnection, fd, *auth_key, server_id, fault).detach();
  }
}

}  // namespace
}  // namespace vdp

int main(int argc, char** argv) {
  return vdp::ServerMain(argc, argv);
}
