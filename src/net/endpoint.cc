#include "src/net/endpoint.h"

namespace vdp {
namespace net {

std::optional<Endpoint> ParseEndpoint(const std::string& spec) {
  constexpr char kTcpScheme[] = "tcp:";
  constexpr char kUnixScheme[] = "unix:";
  if (spec.rfind(kUnixScheme, 0) == 0) {
    std::string path = spec.substr(sizeof(kUnixScheme) - 1);
    if (path.empty()) {
      return std::nullopt;
    }
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = std::move(path);
    return ep;
  }
  if (spec.rfind(kTcpScheme, 0) == 0) {
    const std::string rest = spec.substr(sizeof(kTcpScheme) - 1);
    // host:port, split at the LAST colon (hosts never contain one here --
    // IPv6 literals are not supported in this transport).
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      return std::nullopt;
    }
    const std::string host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    if (host.find(':') != std::string::npos) {
      return std::nullopt;
    }
    uint32_t port = 0;
    for (char c : port_str) {
      if (c < '0' || c > '9') {
        return std::nullopt;
      }
      port = port * 10 + static_cast<uint32_t>(c - '0');
      if (port > 65535) {
        return std::nullopt;
      }
    }
    Endpoint ep;
    ep.kind = Endpoint::Kind::kTcp;
    ep.host = host;
    ep.port = static_cast<uint16_t>(port);
    return ep;
  }
  return std::nullopt;
}

std::string FormatEndpoint(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    return "unix:" + endpoint.path;
  }
  return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
}

std::vector<std::string> SplitEndpointList(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      comma = list.size();
    }
    if (comma > start) {
      out.push_back(list.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace net
}  // namespace vdp
