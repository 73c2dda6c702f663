#include "src/net/introspect.h"

#include <chrono>
#include <utility>

#include "src/common/rng.h"
#include "src/net/remote_conn.h"
#include "src/obs/runlog.h"

namespace vdp {
namespace net {

ProbeOutcome ProbeEndpoint(const Endpoint& endpoint, BytesView auth_key, int timeout_ms) {
  ProbeOutcome outcome;
  // The admin plane gives every step of the session opener one timeout.
  RemoteConn conn = OpenSession(endpoint, auth_key, {timeout_ms, timeout_ms}, &outcome.error);
  if (!conn.ok()) {
    return outcome;
  }
  wire::WireHealthProbe probe;
  SecureRng rng = SecureRng::FromEntropy();
  do {
    probe.nonce = rng.NextU64();
  } while (probe.nonce == 0);
  const auto start = std::chrono::steady_clock::now();
  if (conn.channel.Write(wire::FrameType::kHealthProbe, probe.Serialize(), timeout_ms) !=
      wire::WriteStatus::kOk) {
    outcome.error = "probe write failed";
    CloseRemoteConn(&conn);
    return outcome;
  }
  wire::Frame frame;
  wire::ReadStatus status = conn.channel.Read(&frame, timeout_ms);
  const auto rtt = std::chrono::steady_clock::now() - start;
  CloseRemoteConn(&conn);
  if (status != wire::ReadStatus::kOk) {
    outcome.error = std::string("no health reply (") + wire::ReadStatusName(status) + ")";
    return outcome;
  }
  if (frame.type != wire::FrameType::kHealthReply) {
    outcome.error = "unexpected frame type in health reply";
    return outcome;
  }
  auto reply = wire::WireHealthReply::Deserialize(frame.payload);
  if (!reply.has_value()) {
    outcome.error = "malformed health reply";
    return outcome;
  }
  // A MAC-valid reply carrying the wrong nonce is a protocol violation (a
  // delayed reply from a previous probe on a new connection cannot happen --
  // fresh session key -- so this is a server bug or an active liar).
  if (reply->nonce != probe.nonce) {
    outcome.error = "health reply nonce mismatch";
    return outcome;
  }
  outcome.ok = true;
  outcome.reply = *reply;
  outcome.rtt_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(rtt).count());
  return outcome;
}

StatsResult FetchStats(const Endpoint& endpoint, BytesView auth_key, int timeout_ms,
                       bool include_spans) {
  StatsResult result;
  RemoteConn conn = OpenSession(endpoint, auth_key, {timeout_ms, timeout_ms}, &result.error);
  if (!conn.ok()) {
    return result;
  }
  wire::WireStatsRequest request;
  request.include_spans = include_spans ? 1 : 0;
  if (conn.channel.Write(wire::FrameType::kStatsRequest, request.Serialize(), timeout_ms) !=
      wire::WriteStatus::kOk) {
    result.error = "stats request write failed";
    CloseRemoteConn(&conn);
    return result;
  }
  wire::Frame frame;
  wire::ReadStatus status = conn.channel.Read(&frame, timeout_ms);
  CloseRemoteConn(&conn);
  if (status != wire::ReadStatus::kOk) {
    result.error = std::string("no stats reply (") + wire::ReadStatusName(status) + ")";
    return result;
  }
  if (frame.type != wire::FrameType::kStatsReply) {
    result.error = "unexpected frame type in stats reply";
    return result;
  }
  auto reply = wire::WireStatsReply::Deserialize(frame.payload);
  if (!reply.has_value()) {
    result.error = "malformed stats reply";
    return result;
  }
  auto parsed = obs::ParseJson(reply->stats_json);
  if (!parsed.has_value() || !parsed->is_object() ||
      parsed->StringOr("schema", "") != kStatsSchema) {
    result.error = "stats payload is not vdp.stats/v1";
    return result;
  }
  result.ok = true;
  result.reply = std::move(*reply);
  return result;
}

std::vector<EndpointStatus> ProbeSweep(HealthRegistry* registry,
                                       const std::vector<std::string>& endpoints,
                                       BytesView auth_key, int timeout_ms) {
  std::vector<EndpointStatus> statuses;
  statuses.reserve(endpoints.size());
  for (const std::string& name : endpoints) {
    auto endpoint = ParseEndpoint(name);
    ProbeOutcome outcome;
    if (endpoint.has_value()) {
      outcome = ProbeEndpoint(*endpoint, auth_key, timeout_ms);
    } else {
      outcome.error = "unparseable endpoint";
    }
    if (outcome.ok) {
      registry->ReportProbeSuccess(name, outcome.reply, outcome.rtt_us);
    } else {
      registry->ReportProbeFailure(name, outcome.error);
    }
    statuses.push_back(registry->Status(name));
  }
  return statuses;
}

// --- vdp.stats/v1 serialization -----------------------------------------

obs::JsonValue SnapshotToJson(const obs::MetricsSnapshot& snapshot) {
  obs::JsonValue counters = obs::JsonValue::Object();
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    counters.Set(c.name, obs::JsonValue::Number(static_cast<double>(c.value)));
  }
  obs::JsonValue gauges = obs::JsonValue::Object();
  for (const obs::GaugeSnapshot& g : snapshot.gauges) {
    obs::JsonValue gauge = obs::JsonValue::Object();
    gauge.Set("value", obs::JsonValue::Number(static_cast<double>(g.value)));
    gauge.Set("max", obs::JsonValue::Number(static_cast<double>(g.max)));
    gauges.Set(g.name, std::move(gauge));
  }
  obs::JsonValue histograms = obs::JsonValue::Object();
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    obs::JsonValue histogram = obs::JsonValue::Object();
    obs::JsonValue bounds = obs::JsonValue::Array();
    for (double b : h.bounds) {
      bounds.Append(obs::JsonValue::Number(b));
    }
    obs::JsonValue counts = obs::JsonValue::Array();
    for (uint64_t c : h.counts) {
      counts.Append(obs::JsonValue::Number(static_cast<double>(c)));
    }
    histogram.Set("bounds", std::move(bounds));
    histogram.Set("counts", std::move(counts));
    histogram.Set("count", obs::JsonValue::Number(static_cast<double>(h.count)));
    histogram.Set("sum", obs::JsonValue::Number(h.sum));
    histogram.Set("p50", obs::JsonValue::Number(h.P50()));
    histogram.Set("p90", obs::JsonValue::Number(h.P90()));
    histogram.Set("p99", obs::JsonValue::Number(h.P99()));
    histograms.Set(h.name, std::move(histogram));
  }
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  return out;
}

std::optional<obs::MetricsSnapshot> SnapshotFromJson(const obs::JsonValue& value) {
  if (!value.is_object()) {
    return std::nullopt;
  }
  const obs::JsonValue* counters = value.Find("counters");
  const obs::JsonValue* gauges = value.Find("gauges");
  const obs::JsonValue* histograms = value.Find("histograms");
  if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
      !gauges->is_object() || histograms == nullptr || !histograms->is_object()) {
    return std::nullopt;
  }
  obs::MetricsSnapshot snapshot;
  for (const auto& [name, v] : counters->members()) {
    if (!v.is_number()) {
      return std::nullopt;
    }
    snapshot.counters.push_back(
        obs::CounterSnapshot{name, static_cast<uint64_t>(v.as_number())});
  }
  for (const auto& [name, v] : gauges->members()) {
    const obs::JsonValue* val = v.Find("value");
    const obs::JsonValue* max = v.Find("max");
    if (val == nullptr || !val->is_number() || max == nullptr || !max->is_number()) {
      return std::nullopt;
    }
    snapshot.gauges.push_back(obs::GaugeSnapshot{name,
                                                 static_cast<int64_t>(val->as_number()),
                                                 static_cast<int64_t>(max->as_number())});
  }
  for (const auto& [name, v] : histograms->members()) {
    const obs::JsonValue* bounds = v.Find("bounds");
    const obs::JsonValue* counts = v.Find("counts");
    const obs::JsonValue* count = v.Find("count");
    const obs::JsonValue* sum = v.Find("sum");
    if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
        !counts->is_array() || count == nullptr || !count->is_number() ||
        sum == nullptr || !sum->is_number()) {
      return std::nullopt;
    }
    // The overflow bucket makes counts exactly one longer than bounds.
    if (counts->items().size() != bounds->items().size() + 1) {
      return std::nullopt;
    }
    obs::HistogramSnapshot h;
    h.name = name;
    for (const obs::JsonValue& b : bounds->items()) {
      if (!b.is_number()) {
        return std::nullopt;
      }
      h.bounds.push_back(b.as_number());
    }
    for (const obs::JsonValue& c : counts->items()) {
      if (!c.is_number()) {
        return std::nullopt;
      }
      h.counts.push_back(static_cast<uint64_t>(c.as_number()));
    }
    h.count = static_cast<uint64_t>(count->as_number());
    h.sum = sum->as_number();
    // p50/p90/p99 are deliberately NOT read back: clients recompute them
    // from the buckets (HistogramSnapshot::Percentile), so a tampered
    // percentile cannot survive a round-trip.
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

std::string StatsToJson(const obs::MetricsSnapshot& snapshot,
                        const std::vector<obs::SpanRecord>& spans) {
  obs::JsonValue out = SnapshotToJson(snapshot);
  obs::JsonValue with_schema = obs::JsonValue::Object();
  with_schema.Set("schema", obs::JsonValue::String(kStatsSchema));
  for (const auto& [key, value] : out.members()) {
    with_schema.Set(key, value);
  }
  if (!spans.empty()) {
    obs::JsonValue span_array = obs::JsonValue::Array();
    for (const obs::SpanRecord& span : spans) {
      span_array.Append(obs::SpanToJson(span));
    }
    with_schema.Set("spans", std::move(span_array));
  }
  return obs::WriteJson(with_schema);
}

// --- Prometheus text exposition ------------------------------------------

namespace {

std::string PromName(const std::string& dotted) {
  std::string out = "vdp_";
  out.reserve(out.size() + dotted.size());
  for (char c : dotted) {
    out.push_back(c == '.' ? '_' : c);
  }
  return out;
}

// {labels} or {labels,extra} or {extra} or "" -- whatever is nonempty.
std::string PromLabels(const std::string& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) {
    return "";
  }
  std::string joined = labels;
  if (!labels.empty() && !extra.empty()) {
    joined += ",";
  }
  joined += extra;
  return "{" + joined + "}";
}

}  // namespace

std::string RenderPrometheus(const obs::MetricsSnapshot& snapshot,
                             const std::string& labels) {
  std::string out;
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    const std::string name = PromName(c.name) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + PromLabels(labels) + " " + obs::JsonNumber(static_cast<double>(c.value)) +
           "\n";
  }
  for (const obs::GaugeSnapshot& g : snapshot.gauges) {
    const std::string name = PromName(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + PromLabels(labels) + " " + obs::JsonNumber(static_cast<double>(g.value)) +
           "\n";
    // The high-water mark travels as its own gauge; Prometheus has no
    // native max-so-far type.
    out += "# TYPE " + name + "_max gauge\n";
    out += name + "_max" + PromLabels(labels) + " " +
           obs::JsonNumber(static_cast<double>(g.max)) + "\n";
  }
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    const std::string name = PromName(h.name);
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size() && i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += name + "_bucket" +
             PromLabels(labels, "le=\"" + obs::JsonNumber(h.bounds[i]) + "\"") + " " +
             obs::JsonNumber(static_cast<double>(cumulative)) + "\n";
    }
    out += name + "_bucket" + PromLabels(labels, "le=\"+Inf\"") + " " +
           obs::JsonNumber(static_cast<double>(h.count)) + "\n";
    out += name + "_sum" + PromLabels(labels) + " " + obs::JsonNumber(h.sum) + "\n";
    out += name + "_count" + PromLabels(labels) + " " +
           obs::JsonNumber(static_cast<double>(h.count)) + "\n";
  }
  return out;
}

}  // namespace net
}  // namespace vdp
