#include "src/net/remote_conn.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/net/socket.h"

namespace vdp {
namespace net {

bool AckMatchesSetup(const wire::WireSetupAck& ack, const Sha256::Digest& setup_digest) {
  // The ack digest binds the session to the negotiated parameters; compare
  // in constant time like every other verdict-relevant digest check.
  return ConstantTimeEqual(BytesView(ack.params_digest.data(), ack.params_digest.size()),
                           BytesView(setup_digest.data(), setup_digest.size()));
}

RemoteConn ConnectAndHandshake(const Endpoint& endpoint, BytesView shared_secret,
                               BytesView setup_payload, const Sha256::Digest& setup_digest,
                               const HandshakeOptions& options, std::string* blame) {
  RemoteConn conn;
  std::string connect_error;
  conn.fd = ConnectTo(endpoint, options.connect_timeout_ms, &connect_error);
  if (conn.fd < 0) {
    *blame = connect_error;
    return conn;
  }

  // Server speaks first.
  wire::Frame frame;
  wire::ReadStatus status = wire::ReadFrame(conn.fd, &frame, options.handshake_timeout_ms);
  if (status != wire::ReadStatus::kOk) {
    *blame = std::string("no server hello (") + wire::ReadStatusName(status) + ")";
    CloseRemoteConn(&conn);
    return conn;
  }
  if (frame.type != wire::FrameType::kServerHello) {
    *blame = "handshake sent wrong frame type";
    CloseRemoteConn(&conn);
    return conn;
  }
  auto server_hello = wire::WireServerHello::Deserialize(frame.payload);
  if (!server_hello.has_value()) {
    *blame = "malformed server hello";
    CloseRemoteConn(&conn);
    return conn;
  }
  if (server_hello->version != wire::kWireVersion) {
    *blame = "wire version mismatch: server speaks v" +
             std::to_string(server_hello->version);
    CloseRemoteConn(&conn);
    return conn;
  }
  conn.server_pid = server_hello->pid;
  conn.server_id = server_hello->server_id;

  wire::WireClientHello client_hello;
  SecureRng::FromEntropy().FillBytes(client_hello.nonce.data(), client_hello.nonce.size());
  if (wire::WriteFrame(conn.fd, wire::FrameType::kClientHello, client_hello.Serialize(),
                       options.handshake_timeout_ms) != wire::WriteStatus::kOk) {
    *blame = "client hello write failed";
    CloseRemoteConn(&conn);
    return conn;
  }

  SessionKey key = DeriveSessionKey(
      shared_secret, BytesView(server_hello->nonce.data(), server_hello->nonce.size()),
      BytesView(client_hello.nonce.data(), client_hello.nonce.size()));
  conn.channel = AuthChannel(conn.fd, key, /*is_client=*/true);

  if (conn.channel.Write(wire::FrameType::kSetup, setup_payload,
                         options.handshake_timeout_ms) != wire::WriteStatus::kOk) {
    *blame = "setup write failed";
    CloseRemoteConn(&conn);
    return conn;
  }
  status = conn.channel.Read(&frame, options.handshake_timeout_ms);
  if (status != wire::ReadStatus::kOk) {
    // kAuthFailed here usually means mismatched fleet secrets; kEof is a
    // server that verified OUR MAC and refused us (its side of the same
    // mismatch), or one that rejected the setup contents.
    *blame = std::string("no setup ack (") + wire::ReadStatusName(status) + ")";
    CloseRemoteConn(&conn);
    return conn;
  }
  if (frame.type == wire::FrameType::kError) {
    auto error = wire::WireError::Deserialize(frame.payload);
    *blame = "server refused setup: " + (error.has_value() ? error->message : "<malformed>");
    CloseRemoteConn(&conn);
    return conn;
  }
  if (frame.type != wire::FrameType::kSetupAck) {
    *blame = "unexpected frame type in setup ack";
    CloseRemoteConn(&conn);
    return conn;
  }
  auto ack = wire::WireSetupAck::Deserialize(frame.payload);
  if (!ack.has_value()) {
    *blame = "malformed setup ack";
    CloseRemoteConn(&conn);
    return conn;
  }
  if (!AckMatchesSetup(*ack, setup_digest)) {
    *blame = "setup ack digest mismatch (server holds stale parameters)";
    CloseRemoteConn(&conn);
    return conn;
  }
  return conn;
}

void CloseRemoteConn(RemoteConn* conn) {
  CloseFd(&conn->fd);
}

}  // namespace net
}  // namespace vdp
