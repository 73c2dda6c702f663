// Endpoint grammar: the textual forms ProtocolConfig::remote_verifiers
// accepts, their round-trip through FormatEndpoint, and everything
// Validate() must reject.
#include <gtest/gtest.h>

#include "src/net/endpoint.h"

namespace vdp {
namespace net {
namespace {

TEST(EndpointTest, ParsesTcp) {
  auto ep = ParseEndpoint("tcp:127.0.0.1:7000");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 7000);
  EXPECT_EQ(FormatEndpoint(*ep), "tcp:127.0.0.1:7000");
}

TEST(EndpointTest, ParsesHostname) {
  auto ep = ParseEndpoint("tcp:verifier-3.internal:443");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->host, "verifier-3.internal");
  EXPECT_EQ(ep->port, 443);
}

TEST(EndpointTest, ParsesEphemeralPort) {
  auto ep = ParseEndpoint("tcp:0.0.0.0:0");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->port, 0);
}

TEST(EndpointTest, ParsesUnix) {
  auto ep = ParseEndpoint("unix:/run/vdp/verifier.sock");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep->path, "/run/vdp/verifier.sock");
  EXPECT_EQ(FormatEndpoint(*ep), "unix:/run/vdp/verifier.sock");
}

TEST(EndpointTest, RoundTripsThroughFormat) {
  for (const char* spec : {"tcp:10.0.0.1:1", "tcp:localhost:65535", "unix:/tmp/x.sock"}) {
    auto ep = ParseEndpoint(spec);
    ASSERT_TRUE(ep.has_value()) << spec;
    auto again = ParseEndpoint(FormatEndpoint(*ep));
    ASSERT_TRUE(again.has_value()) << spec;
    EXPECT_EQ(*ep, *again) << spec;
  }
}

TEST(EndpointTest, RejectsMalformed) {
  for (const char* spec :
       {"", "tcp:", "unix:", "tcp:host", "tcp:host:", "tcp::7000", "tcp:host:port",
        "tcp:host:-1", "tcp:host:65536", "tcp:host:70000", "tcp:a:b:7000",
        "udp:host:7000", "host:7000", "/tmp/x.sock", "tcp:host:7000x"}) {
    EXPECT_FALSE(ParseEndpoint(spec).has_value()) << spec;
  }
}

TEST(EndpointTest, SplitEndpointListSkipsEmptyItems) {
  EXPECT_EQ(SplitEndpointList("tcp:a:1,unix:/s"),
            (std::vector<std::string>{"tcp:a:1", "unix:/s"}));
  EXPECT_EQ(SplitEndpointList(",tcp:a:1,,tcp:b:2,"),
            (std::vector<std::string>{"tcp:a:1", "tcp:b:2"}));
  EXPECT_EQ(SplitEndpointList("tcp:a:1"), (std::vector<std::string>{"tcp:a:1"}));
  EXPECT_TRUE(SplitEndpointList("").empty());
  EXPECT_TRUE(SplitEndpointList(",,").empty());
  // Items are split, not parsed.
  EXPECT_EQ(SplitEndpointList("bogus, tcp:a:1"),
            (std::vector<std::string>{"bogus", " tcp:a:1"}));
}

}  // namespace
}  // namespace net
}  // namespace vdp
