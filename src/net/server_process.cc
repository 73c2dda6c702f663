// For pipe2: O_CLOEXEC pipes must be created atomically. Spawners fork from
// multiple threads, so a close-on-exec flag set after pipe() would leave a
// window for a sibling server to inherit this server's pipe ends (and keep
// its liveness pipe open after the spawner closes it).
#define _GNU_SOURCE 1

#include "src/net/server_process.h"

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/net/auth.h"
#include "src/net/socket.h"

namespace vdp {
namespace net {

namespace {

// The reap ladder: up to ~500ms of WNOHANG polling for a graceful exit (a
// healthy server exits as soon as it sees EOF on its liveness pipe), then
// SIGKILL, then an EINTR-retried blocking reap. Returns how the child ended,
// for blame reports.
std::string ReapChild(pid_t pid) {
  int status = 0;
  pid_t reaped = 0;
  for (int waited_ms = 0; waited_ms < 500; waited_ms += 10) {
    reaped = waitpid(pid, &status, WNOHANG);
    if (reaped != 0) {
      break;
    }
    usleep(10 * 1000);
  }
  if (reaped == 0) {
    kill(pid, SIGKILL);
    // Retry EINTR: an interrupting timer must not turn a clean SIGKILL reap
    // into a "wait failed" blame (and a leaked zombie).
    do {
      reaped = waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
  }
  if (reaped < 0) {
    return "wait failed";
  }
  if (WIFEXITED(status)) {
    return "exited " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended";
}

// Reads the "LISTENING <endpoint>\n" announcement line. timeout_ms is one
// deadline over the whole announcement, not per byte -- a child trickling
// diagnostics without ever announcing still fails on schedule.
std::optional<std::string> ReadAnnouncement(int fd, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string line;
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) {
      return std::nullopt;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return std::nullopt;
    }
    char c;
    ssize_t n = read(fd, &c, 1);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      continue;
    }
    if (n <= 0) {
      return std::nullopt;  // server died before announcing
    }
    if (c == '\n') {
      constexpr char kPrefix[] = "LISTENING ";
      if (line.rfind(kPrefix, 0) == 0) {
        return line.substr(sizeof(kPrefix) - 1);
      }
      line.clear();  // skip any unrelated diagnostic line
      continue;
    }
    line.push_back(c);
  }
}

}  // namespace

std::string DefaultServerPath() {
  if (const char* env = std::getenv("VDP_VERIFY_SERVER_PATH")) {
    return env;
  }
  char exe[PATH_MAX];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return "";
  }
  exe[n] = '\0';
  std::string path(exe);
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return "";
  }
  return path.substr(0, slash + 1) + "verify_server";
}

std::optional<ServerProcess> SpawnVerifyServer(const SpawnServerOptions& options) {
  IgnoreSigpipe();
  std::string path = options.server_path.empty() ? DefaultServerPath() : options.server_path;
  if (path.empty()) {
    return std::nullopt;
  }

  int stdin_pipe[2];   // spawner -> server (liveness only, never written)
  int stdout_pipe[2];  // server -> spawner (the LISTENING line)
  if (pipe2(stdin_pipe, O_CLOEXEC) != 0) {
    return std::nullopt;
  }
  if (pipe2(stdout_pipe, O_CLOEXEC) != 0) {
    close(stdin_pipe[0]);
    close(stdin_pipe[1]);
    return std::nullopt;
  }

  // Materialize argv before fork (only async-signal-safe calls after).
  const std::string id = std::to_string(options.server_id);
  std::vector<std::string> args = {path,      "--listen", options.listen,
                                   "--id",    id,         "--watch-stdin"};
  if (!options.auth_key_file.empty()) {
    args.push_back("--auth-key-file");
    args.push_back(options.auth_key_file);
  }
  if (!options.fault.empty()) {
    args.push_back("--fault");
    args.push_back(options.fault);
  }
  if (options.once) {
    args.push_back("--once");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    close(stdin_pipe[0]);
    close(stdin_pipe[1]);
    close(stdout_pipe[0]);
    close(stdout_pipe[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    dup2(stdin_pipe[0], STDIN_FILENO);
    dup2(stdout_pipe[1], STDOUT_FILENO);
    execv(path.c_str(), argv.data());
    _exit(127);
  }

  close(stdin_pipe[0]);
  close(stdout_pipe[1]);
  ServerProcess server;
  server.pid = pid;
  server.server_id = options.server_id;
  server.stdin_fd = stdin_pipe[1];
  server.stdout_fd = stdout_pipe[0];

  auto endpoint = ReadAnnouncement(server.stdout_fd, options.announce_timeout_ms);
  if (!endpoint.has_value()) {
    DestroyServer(&server);
    return std::nullopt;
  }
  server.endpoint = std::move(*endpoint);
  return server;
}

std::string DestroyServer(ServerProcess* server) {
  CloseFd(&server->stdin_fd);  // EOF: --watch-stdin exits on its own
  CloseFd(&server->stdout_fd);
  if (server->pid < 0) {
    return "never started";
  }
  std::string ended = ReapChild(server->pid);
  server->pid = -1;
  return ended;
}

LoopbackFleet::LoopbackFleet(size_t n, const std::string& fault) {
  // One fresh fleet secret per fleet, written to a temp key file every
  // server reads at startup.
  Bytes key = SecureRng::FromEntropy().RandomBytes(32);
  key_hex_ = HexEncode(key);

  char key_path[] = "/tmp/vdp-fleet-key-XXXXXX";
  int key_fd = mkstemp(key_path);
  if (key_fd < 0) {
    throw std::runtime_error(std::string("LoopbackFleet: cannot create key file: ") +
                             std::strerror(errno));
  }
  key_file_ = key_path;
  const std::string contents = key_hex_ + "\n";
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t w = write(key_fd, contents.data() + written, contents.size() - written);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w < 0) {
      const int error = errno;
      close(key_fd);
      Teardown();
      throw std::runtime_error(std::string("LoopbackFleet: cannot write key file ") +
                               key_path + ": " + std::strerror(error));
    }
    written += static_cast<size_t>(w);
  }
  close(key_fd);

  for (size_t i = 0; i < n; ++i) {
    SpawnServerOptions options;
    options.auth_key_file = key_file_;
    options.server_id = i;
    options.fault = fault;
    auto server = SpawnVerifyServer(options);
    if (!server.has_value()) {
      // A fleet short of servers would quietly turn remote runs into
      // in-process ones; the constructor's promise is n servers or a throw.
      Teardown();
      throw std::runtime_error("LoopbackFleet: could not start server " + std::to_string(i) +
                               " from '" + DefaultServerPath() + "'");
    }
    servers_.push_back(std::move(*server));
  }
}

LoopbackFleet::~LoopbackFleet() { Teardown(); }

void LoopbackFleet::Teardown() {
  for (ServerProcess& server : servers_) {
    DestroyServer(&server);
  }
  servers_.clear();
  if (!key_file_.empty()) {
    unlink(key_file_.c_str());
    key_file_.clear();
  }
}

std::vector<std::string> LoopbackFleet::Endpoints() const {
  std::vector<std::string> endpoints;
  endpoints.reserve(servers_.size());
  for (const ServerProcess& server : servers_) {
    endpoints.push_back(server.endpoint);
  }
  return endpoints;
}

void LoopbackFleet::ApplyTo(ProtocolConfig* config) const {
  config->remote_verifiers = Endpoints();
  config->remote_auth_key_hex = key_hex_;
}

const LoopbackFleet& SharedLoopbackFleet(size_t n) {
  // A real static (not a leaked pointer): the destructor runs at exit and
  // reaps the servers and unlinks the key file; --watch-stdin remains the
  // backstop for an unclean death. The destructor only makes syscalls, so
  // static-teardown ordering cannot bite it.
  static LoopbackFleet fleet(n);
  return fleet;
}

bool ApplyRemoteEnvHook(ProtocolConfig* config) {
  const char* env = std::getenv("VDP_REMOTE_VERIFIERS");
  if (env == nullptr || env[0] == '\0') {
    return false;
  }
  const std::string spec(env);
  constexpr char kSpawnPrefix[] = "spawn:";
  if (spec.rfind(kSpawnPrefix, 0) == 0) {
    size_t n = static_cast<size_t>(
        std::strtoull(spec.c_str() + sizeof(kSpawnPrefix) - 1, nullptr, 10));
    if (n == 0) {
      return false;
    }
    // One shared fleet per process; dies with the process (and, via
    // --watch-stdin, even with an unclean death).
    SharedLoopbackFleet(n).ApplyTo(config);
    return true;
  }
  // Comma-separated endpoint list with the key from the environment.
  std::vector<std::string> endpoints = SplitEndpointList(spec);
  const char* key = std::getenv("VDP_REMOTE_AUTH_KEY");
  if (endpoints.empty() || key == nullptr) {
    return false;
  }
  config->remote_verifiers = std::move(endpoints);
  config->remote_auth_key_hex = key;
  return true;
}

}  // namespace net
}  // namespace vdp
