// Admin-plane client + serialization for live fleet introspection.
//
// verify_server answers two authenticated admin frames (wire v1, admin
// direction bytes, src/net/auth.h): kHealthProbe -> kHealthReply (liveness:
// uptime, installed setup digest, in-flight shards, queue depth) and
// kStatsRequest -> kStatsReply (a full MetricsRegistry snapshot plus recent
// trace spans, as vdp.stats/v1 JSON). This header is the client side --
// used by the vdp_fleetctl tool, vdpbench and the loopback tests --
// plus the JSON/Prometheus renderers both ends share.
//
// An admin session opens exactly like a data-plane one (net::OpenSession,
// src/net/remote_conn.h), minus the setup exchange:
//
//   connect -> read kServerHello -> write kClientHello -> derive key
//           -> kHealthProbe / kStatsRequest as the FIRST authenticated
//              frame (the server branches on it; no kSetup needed)
//
// so an operator can interrogate a verifier that has never been handed
// parameters -- exactly the server you most want to ask questions of. The
// replies are MAC-verified under the same fleet secret as shard traffic:
// health lies require key compromise, not just network position.
#ifndef SRC_NET_INTROSPECT_H_
#define SRC_NET_INTROSPECT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/net/endpoint.h"
#include "src/net/health.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/wire/wire_format.h"

namespace vdp {
namespace net {

// Schema tag of the stats payload carried inside kStatsReply.
inline constexpr const char* kStatsSchema = "vdp.stats/v1";

// What one probe attempt produced.
struct ProbeOutcome {
  bool ok = false;
  std::string error;              // when !ok
  wire::WireHealthReply reply{};  // when ok
  uint64_t rtt_us = 0;
};

// One probe round-trip against an endpoint: fresh connection, hello pair,
// authenticated kHealthProbe with a random nonzero nonce, MAC-verified
// kHealthReply with the nonce echoed. `timeout_ms` bounds each step
// (connect, hello, probe write, reply read), so a hung server costs at most
// a few timeouts, never forever. The outcome's rtt_us measures only the
// probe->reply exchange, not connection setup.
ProbeOutcome ProbeEndpoint(const Endpoint& endpoint, BytesView auth_key, int timeout_ms);

struct StatsResult {
  bool ok = false;
  std::string error;            // when !ok
  wire::WireStatsReply reply{};  // when ok; reply.stats_json parses as kStatsSchema
};

// Fetches a verifier's metrics/span dump over the admin plane.
StatsResult FetchStats(const Endpoint& endpoint, BytesView auth_key, int timeout_ms,
                       bool include_spans);

// One probe sweep: probes every endpoint in `endpoints` once, in order,
// and reports each outcome into `registry` (an unparseable endpoint is a
// failed probe). Returns each endpoint's judged status, in `endpoints`
// order. vdp_fleetctl's status and watch modes are repeated sweeps.
std::vector<EndpointStatus> ProbeSweep(HealthRegistry* registry,
                                       const std::vector<std::string>& endpoints,
                                       BytesView auth_key, int timeout_ms);

// --- vdp.stats/v1 serialization -----------------------------------------
// The JSON the server packs into kStatsReply and the clients unpack:
//   {"schema":"vdp.stats/v1",
//    "counters":{"fleet.retries":3,...},
//    "gauges":{"stream.inflight_shards":{"value":2,"max":4},...},
//    "histograms":{"verify.shard_ms":{"bounds":[...],"counts":[...],
//                  "count":n,"sum":s,"p50":x,"p90":y,"p99":z},...},
//    "spans":[{"name":...,"span_id":"hex",...},...]}  (optional)

obs::JsonValue SnapshotToJson(const obs::MetricsSnapshot& snapshot);
// Total: nullopt on any shape violation. Percentiles are recomputed from
// buckets client-side, so a lying p99 cannot survive the round-trip.
std::optional<obs::MetricsSnapshot> SnapshotFromJson(const obs::JsonValue& value);

// The full kStatsReply payload (schema-stamped; spans optional).
std::string StatsToJson(const obs::MetricsSnapshot& snapshot,
                        const std::vector<obs::SpanRecord>& spans);

// Prometheus text exposition (version 0.0.4) of one snapshot: names get a
// "vdp_" prefix with dots mapped to underscores, counters a "_total"
// suffix, histograms the cumulative _bucket{le=...}/_sum/_count triplet.
// `labels` is a preformatted label list ('endpoint="tcp:h:p"') merged into
// every sample's label set; empty means no labels.
std::string RenderPrometheus(const obs::MetricsSnapshot& snapshot,
                             const std::string& labels = "");

}  // namespace net
}  // namespace vdp

#endif  // SRC_NET_INTROSPECT_H_
