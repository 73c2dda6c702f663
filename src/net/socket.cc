#include "src/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <utility>

namespace vdp {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

// Milliseconds until `deadline`, clamped to >= 0; -1 for "no deadline".
// EINTR retries must resume the SAME deadline, never restart it (the
// signal-safety contract of src/wire/frame_io.h).
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) {
    return -1;
  }
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  // Tasks and results are whole frames followed by a read of the response;
  // Nagle would add a round-trip of latency per shard for nothing.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Keepalive so a peer machine that powers off or partitions (no FIN ever
  // arrives) eventually errors the connection out instead of pinning a
  // server session forever in an indefinite read.
  setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
}

// Fills a sockaddr_un; fails when the path does not fit (sun_path is ~108
// bytes and silent truncation would bind the wrong file).
bool FillUnixAddr(const std::string& path, sockaddr_un* addr, socklen_t* len) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return false;
  }
  memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  *len = sizeof(sockaddr_un);
  return true;
}

// True when a unix socket file has a live listener behind it: a second
// server configured with the same path must fail loudly instead of
// silently unlinking a running sibling's socket. Only a genuinely stale
// file (connect refused / no such file) is safe to remove.
bool UnixSocketIsLive(const sockaddr_un* addr, socklen_t len) {
  int probe = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (probe < 0) {
    return true;  // cannot tell; err on the side of not unlinking
  }
  int rc;
  do {
    rc = connect(probe, reinterpret_cast<const sockaddr*>(addr), len);
  } while (rc != 0 && errno == EINTR);
  const bool live = rc == 0;
  close(probe);
  return live;
}

// Resolves a tcp endpoint to an IPv4 sockaddr (numeric fast path first).
bool ResolveTcp(const Endpoint& endpoint, sockaddr_in* addr) {
  memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(endpoint.port);
  if (inet_pton(AF_INET, endpoint.host.c_str(), &addr->sin_addr) == 1) {
    return true;
  }
  struct addrinfo hints;
  memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  if (getaddrinfo(endpoint.host.c_str(), nullptr, &hints, &result) != 0 ||
      result == nullptr) {
    return false;
  }
  addr->sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  freeaddrinfo(result);
  return true;
}

}  // namespace

void CloseFd(int* fd) {
  if (*fd >= 0) {
    close(*fd);
    *fd = -1;
  }
}

void IgnoreSigpipe() {
  // Safe to run from multiple threads: every call installs the same
  // disposition, and it is never reverted.
  signal(SIGPIPE, SIG_IGN);
}

std::optional<Listener> Listener::Open(const Endpoint& endpoint) {
  Listener listener;
  listener.bound_ = endpoint;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    socklen_t len = 0;
    if (!FillUnixAddr(endpoint.path, &addr, &len)) {
      return std::nullopt;
    }
    listener.fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listener.fd_ < 0) {
      return std::nullopt;
    }
    // Close the fd on failure BEFORE returning: the destructor unlinks the
    // path for an open unix listener, which must never happen for a path we
    // did not bind (it may belong to a live sibling).
    if (UnixSocketIsLive(&addr, len)) {
      CloseFd(&listener.fd_);  // a sibling server is already bound here
      return std::nullopt;
    }
    unlink(endpoint.path.c_str());  // stale socket file from a dead server
    if (bind(listener.fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        listen(listener.fd_, SOMAXCONN) != 0) {
      CloseFd(&listener.fd_);
      return std::nullopt;
    }
    return listener;
  }

  sockaddr_in addr;
  if (!ResolveTcp(endpoint, &addr)) {
    return std::nullopt;
  }
  listener.fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener.fd_ < 0) {
    return std::nullopt;
  }
  int one = 1;
  setsockopt(listener.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(listener.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener.fd_, SOMAXCONN) != 0) {
    return std::nullopt;
  }
  // Report the port the kernel actually assigned when the caller asked for 0.
  sockaddr_in bound_addr;
  socklen_t bound_len = sizeof(bound_addr);
  if (getsockname(listener.fd_, reinterpret_cast<sockaddr*>(&bound_addr), &bound_len) == 0) {
    listener.bound_.port = ntohs(bound_addr.sin_port);
  }
  return listener;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), bound_(std::move(other.bound_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    CloseFd(&fd_);
    fd_ = std::exchange(other.fd_, -1);
    bound_ = std::move(other.bound_);
  }
  return *this;
}

Listener::~Listener() {
  if (fd_ >= 0 && bound_.kind == Endpoint::Kind::kUnix) {
    unlink(bound_.path.c_str());
  }
  CloseFd(&fd_);
}

int Listener::Accept(int timeout_ms) const {
  const bool has_deadline = timeout_ms >= 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = poll(&pfd, 1, RemainingMs(has_deadline, deadline));
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (ready == 0) {
      return -1;  // timeout
    }
    int fd = accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // EINTR / a peer that disconnected between poll and accept: keep
      // waiting for the next connection instead of failing the listener.
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      return -1;
    }
    if (bound_.kind == Endpoint::Kind::kTcp) {
      SetNoDelay(fd);
    }
    return fd;
  }
}

int ConnectTo(const Endpoint& endpoint, int timeout_ms, std::string* error) {
  sockaddr_un unix_addr;
  sockaddr_in tcp_addr;
  sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  int family = AF_INET;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    socklen_t len = 0;
    if (!FillUnixAddr(endpoint.path, &unix_addr, &len)) {
      SetError(error, "unix socket path too long");
      return -1;
    }
    addr = reinterpret_cast<sockaddr*>(&unix_addr);
    addr_len = len;
    family = AF_UNIX;
  } else {
    if (!ResolveTcp(endpoint, &tcp_addr)) {
      SetError(error, "resolve failed: " + endpoint.host);
      return -1;
    }
    addr = reinterpret_cast<sockaddr*>(&tcp_addr);
    addr_len = sizeof(tcp_addr);
  }

  int fd = socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    SetError(error, "socket failed");
    return -1;
  }
  if (!SetNonBlocking(fd)) {
    SetError(error, "fcntl failed");
    CloseFd(&fd);
    return -1;
  }

  int rc;
  do {
    rc = connect(fd, addr, addr_len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    SetError(error, std::string("connect failed: ") + strerror(errno));
    CloseFd(&fd);
    return -1;
  }
  if (rc != 0) {
    // In progress: wait for writability, then read the outcome. EINTR
    // retries resume the same deadline -- under a constant signal stream
    // the timeout must still fire on schedule.
    const bool has_deadline = timeout_ms >= 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int ready;
    do {
      pfd.revents = 0;
      ready = poll(&pfd, 1, RemainingMs(has_deadline, deadline));
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      SetError(error, ready == 0 ? "connect timed out" : "poll failed");
      CloseFd(&fd);
      return -1;
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) != 0 || so_error != 0) {
      SetError(error, std::string("connect failed: ") + strerror(so_error));
      CloseFd(&fd);
      return -1;
    }
  }
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    SetNoDelay(fd);
  }
  return fd;
}

}  // namespace net
}  // namespace vdp
