// TCP / Unix-domain socket plumbing for the remote-verifier transport:
// a listener with deadline-aware accept, and a connector with a
// poll-bounded nonblocking connect. Both retry EINTR -- a signal is never a
// connection failure -- and both hand back fds the frame layer
// (src/wire/frame_io.h) can drive directly.
//
// Fd modes: connector fds are left O_NONBLOCK so WriteFrame's deadline is
// honored against a peer that stops draining; accepted fds stay blocking --
// the server writes results without deadlines.
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <optional>
#include <string>

#include "src/net/endpoint.h"

namespace vdp {
namespace net {

// Closes if open; idempotent.
void CloseFd(int* fd);

// Process-wide, idempotent: a write into a dead peer (socket or pipe) must
// fail with EPIPE instead of killing the process.
void IgnoreSigpipe();

// Bound listening socket. Move-only; the fd closes on destruction (a unix
// socket path is unlinked too).
class Listener {
 public:
  // Binds and listens. For tcp with port 0 the kernel picks an ephemeral
  // port and bound() reports it; for unix a stale socket file is unlinked
  // before bind. nullopt on any socket/bind/listen failure.
  static std::optional<Listener> Open(const Endpoint& endpoint);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  // Accepts one connection. timeout_ms < 0 blocks indefinitely. Returns the
  // connected fd (blocking, TCP_NODELAY on tcp), or -1 on timeout/error.
  int Accept(int timeout_ms = -1) const;

  // The endpoint actually bound (ephemeral tcp port resolved).
  const Endpoint& bound() const { return bound_; }
  int fd() const { return fd_; }

 private:
  Listener() = default;

  int fd_ = -1;
  Endpoint bound_;
};

// Connects with a deadline: nonblocking connect(2) + poll + SO_ERROR. The
// returned fd stays O_NONBLOCK (see header comment); -1 on failure, with a
// short reason ("resolve failed", "connect timed out", ...) in *error when
// provided.
int ConnectTo(const Endpoint& endpoint, int timeout_ms, std::string* error = nullptr);

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_SOCKET_H_
