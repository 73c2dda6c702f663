// Verifier endpoint addresses for the socket transport.
//
// Two address families, one textual form:
//
//   tcp:<host>:<port>   e.g. tcp:127.0.0.1:7000, tcp:verifier-3.internal:7000
//   unix:<path>         e.g. unix:/run/vdp/verifier.sock
//
// Parsing is total and dependency-free (no socket headers), so
// ProtocolConfig::Validate() can reject a malformed remote_verifiers entry
// at config entry without dragging networking into src/core.
#ifndef SRC_NET_ENDPOINT_H_
#define SRC_NET_ENDPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vdp {
namespace net {

struct Endpoint {
  enum class Kind { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  std::string host;   // tcp only: IPv4 literal or resolvable name
  uint16_t port = 0;  // tcp only: 0 asks listen for an ephemeral port
  std::string path;   // unix only: socket path (bound length-checked at bind)

  bool operator==(const Endpoint&) const = default;
};

// Parses "tcp:host:port" / "unix:path". Rejects empty host/path, a
// non-numeric or out-of-range port, and unknown schemes.
std::optional<Endpoint> ParseEndpoint(const std::string& spec);

// The canonical textual form; round-trips through ParseEndpoint.
std::string FormatEndpoint(const Endpoint& endpoint);

// Splits a comma-separated endpoint list ("tcp:a:1,unix:/s"), skipping empty
// items. The items are not parsed.
std::vector<std::string> SplitEndpointList(const std::string& list);

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_ENDPOINT_H_
