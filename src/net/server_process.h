// Local verify_server process plumbing: spawn a daemon on a loopback
// endpoint, discover the port it bound, and tear it down without leaking
// fds or zombies. This is how ProtocolConfig::verify_workers stands up its
// local fleet (src/verify/remote_backend.h), and how tests, benches, and
// the VDP_REMOTE_VERIFIERS CI hook stand up a real socket fleet inside one
// box; production fleets run verify_server under their own supervisor (see
// README "Deploying remote verifiers").
#ifndef SRC_NET_SERVER_PROCESS_H_
#define SRC_NET_SERVER_PROCESS_H_

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "src/core/params.h"

namespace vdp {
namespace net {

struct ServerProcess {
  pid_t pid = -1;
  size_t server_id = 0;
  std::string endpoint;  // the bound endpoint announced by the server
  int stdin_fd = -1;     // write end of the server's --watch-stdin pipe
  int stdout_fd = -1;    // read end of the server's stdout
};

// Absolute path of the verify_server binary: $VDP_VERIFY_SERVER_PATH if
// set, else a sibling of the running executable. Empty when neither
// resolves.
std::string DefaultServerPath();

struct SpawnServerOptions {
  std::string server_path;              // empty picks DefaultServerPath()
  std::string listen = "tcp:127.0.0.1:0";
  std::string auth_key_file;
  size_t server_id = 0;
  std::string fault;                    // --fault spec, empty for none
  bool once = false;
  int announce_timeout_ms = 20'000;     // waiting for the LISTENING line
};

// Forks and execs a verify_server with --watch-stdin (the returned
// stdin_fd keeps it alive; closing it -- including by this process dying --
// shuts the server down), then reads the announced endpoint. nullopt when
// spawn or the announcement fails.
std::optional<ServerProcess> SpawnVerifyServer(const SpawnServerOptions& options);

// Closes the pipes (a healthy server exits on stdin EOF), SIGKILLs if still
// running, and reaps. Returns how the server ended, for blame/debug.
std::string DestroyServer(ServerProcess* server);

// A fleet of loopback verify_server daemons sharing one fresh random auth
// key, for tests and benches. Servers die with this object -- or, via
// --watch-stdin, with the process.
class LoopbackFleet {
 public:
  // Spawns `n` servers on ephemeral 127.0.0.1 ports. Spawn failures leave
  // the fleet with fewer servers (callers assert servers().size()).
  // `fault` is passed to every server as its --fault spec.
  LoopbackFleet(size_t n, const std::string& fault = "");
  ~LoopbackFleet();
  LoopbackFleet(const LoopbackFleet&) = delete;
  LoopbackFleet& operator=(const LoopbackFleet&) = delete;

  const std::vector<ServerProcess>& servers() const { return servers_; }
  std::vector<ServerProcess>* mutable_servers() { return &servers_; }
  const std::string& key_hex() const { return key_hex_; }
  // The temp file holding key_hex(), for spawning extra servers (e.g. on a
  // unix socket) into this fleet's trust domain.
  const std::string& key_file() const { return key_file_; }

  std::vector<std::string> Endpoints() const;

  // Points a config at this fleet (remote_verifiers + remote_auth_key_hex).
  void ApplyTo(ProtocolConfig* config) const;

 private:
  std::vector<ServerProcess> servers_;
  std::string key_hex_;
  std::string key_file_;
};

// Process-wide shared fleet for suites that need "a" remote fleet rather
// than their own (conformance, benches). Spawned on first use with the
// first caller's size; lives until process exit (--watch-stdin guarantees
// the servers go down with us, clean exit or not).
const LoopbackFleet& SharedLoopbackFleet(size_t n);

// CI/test hook, the remote sibling of VDP_NUM_VERIFY_SHARDS and
// VDP_VERIFY_WORKERS: when $VDP_REMOTE_VERIFIERS is
//   - "spawn:<n>": stands up (once per process) a shared n-server loopback
//     fleet and points the config at it;
//   - a comma-separated endpoint list: uses those endpoints with
//     $VDP_REMOTE_AUTH_KEY as the fleet secret.
// Returns true when remote settings were applied.
bool ApplyRemoteEnvHook(ProtocolConfig* config);

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_SERVER_PROCESS_H_
