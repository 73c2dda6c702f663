// Client-side connection bootstrap to one remote verifier. Both planes
// open their session the same way (OpenSession):
//
//   connect -> read kServerHello (version + server nonce)
//           -> write kClientHello (client nonce)
//           -> derive session key (src/net/auth.h)
//
// The data plane (ConnectAndHandshake) then installs its parameters:
//
//           -> write kSetup on the AuthChannel (first authenticated frame;
//              proves the driver holds the fleet secret)
//           -> read kSetupAck and check MAC + echoed digest (proves the
//              server holds the secret AND installed exactly these
//              parameters -- a stale digest or a bad MAC is blamed, never
//              worked around)
//
// while the admin plane (src/net/introspect.h) sends a kHealthProbe or
// kStatsRequest as its first authenticated frame instead.
//
// On success the returned connection's AuthChannel is positioned for the
// next exchange. Non-templated: the setup travels as serialized bytes, so
// this layer never depends on a group backend.
#ifndef SRC_NET_REMOTE_CONN_H_
#define SRC_NET_REMOTE_CONN_H_

#include <string>

#include "src/net/auth.h"
#include "src/net/endpoint.h"

namespace vdp {
namespace net {

struct HandshakeOptions {
  int connect_timeout_ms = 10'000;
  // Per handshake frame (server hello, client hello, setup write, setup ack).
  int handshake_timeout_ms = 15'000;
};

struct RemoteConn {
  int fd = -1;
  AuthChannel channel;
  uint64_t server_pid = 0;
  uint64_t server_id = 0;

  bool ok() const { return fd >= 0; }
};

// The driver-side check a SetupAck must pass: it echoes this session's
// setup digest byte-for-byte. Exposed for the wire golden/rejection tests.
bool AckMatchesSetup(const wire::WireSetupAck& ack, const Sha256::Digest& setup_digest);

// Connects and runs the hello exchange above, leaving a client AuthChannel
// at sequence 0 of both planes. On failure returns a non-ok() RemoteConn
// with the reason in *blame (connect vs malformed hello vs version skew).
RemoteConn OpenSession(const Endpoint& endpoint, BytesView shared_secret,
                       const HandshakeOptions& options, std::string* blame);

// OpenSession, then the setup exchange. On failure returns a non-ok()
// RemoteConn with the reason in *blame (connect vs version skew vs auth vs
// stale digest).
RemoteConn ConnectAndHandshake(const Endpoint& endpoint, BytesView shared_secret,
                               BytesView setup_payload, const Sha256::Digest& setup_digest,
                               const HandshakeOptions& options, std::string* blame);

// Closes the connection fd.
void CloseRemoteConn(RemoteConn* conn);

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_REMOTE_CONN_H_
