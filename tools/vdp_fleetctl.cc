// vdp_fleetctl: live fleet introspection from the command line.
//
// Talks the authenticated admin plane (src/net/introspect.h) to a fleet of
// verify_server daemons: health probes, metrics/span dumps, Prometheus
// text exposition. Every reply is MAC-verified under the fleet secret, so
// what this tool prints required key possession to forge.
//
// Usage:
//   vdp_fleetctl status --endpoints tcp:h:p[,tcp:h:p...] --auth-key-file F
//                [--probes N] [--timeout MS] [--json]
//   vdp_fleetctl stats  --endpoints ... --auth-key-file F
//                [--timeout MS] [--json | --prom] [--spans]
//   vdp_fleetctl watch  --endpoints ... --auth-key-file F
//                [--interval MS] [--timeout MS] [--count N]
//
// status  probes each endpoint --probes times (default 2) through the
//         HealthRegistry state machine (src/net/health.h), then reports
//         the judged state per endpoint, in --endpoints order. A hung
//         server therefore shows as "degraded" (or "dead" with enough
//         probes), not as a tool timeout.
//         --json emits a vdp.fleetctl/v1 document for scripts and CI.
// stats   fetches each server's vdp.stats/v1 dump: counters, gauges, and
//         histograms with p50/p90/p99. --json prints the raw per-endpoint
//         payloads; --prom renders Prometheus text exposition with an
//         endpoint label per sample (scrapers work unchanged).
// watch   repeats a status sweep every --interval ms (default 1000),
//         --count times (default forever), one line per endpoint per sweep.
//
// The fleet secret comes from --auth-key-file or $VDP_REMOTE_AUTH_KEY, same
// as verify_server. Exit code: 0 when every endpoint answered healthy,
// 1 when any endpoint is degraded/dead/unreachable, 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/net/auth.h"
#include "src/net/introspect.h"
#include "src/obs/json.h"

namespace vdp {
namespace {

inline constexpr const char* kFleetctlSchema = "vdp.fleetctl/v1";

struct Options {
  std::string mode;
  std::vector<std::string> endpoints;
  std::string key_file;
  int timeout_ms = 2000;
  int probes = 2;
  int interval_ms = 1000;
  long count = -1;  // watch sweeps; -1 = forever
  bool json = false;
  bool prom = false;
  bool spans = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: vdp_fleetctl <status|stats|watch> --endpoints tcp:h:p[,...]\n"
               "       [--auth-key-file F] [--timeout MS] [--probes N]\n"
               "       [--interval MS] [--count N] [--json] [--prom] [--spans]\n");
  return 2;
}

obs::JsonValue StatusToJson(const std::vector<net::EndpointStatus>& statuses) {
  obs::JsonValue endpoints = obs::JsonValue::Array();
  for (const net::EndpointStatus& s : statuses) {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("endpoint", obs::JsonValue::String(s.endpoint));
    e.Set("state", obs::JsonValue::String(net::EndpointHealthName(s.state)));
    e.Set("probes", obs::JsonValue::Number(static_cast<double>(s.probes)));
    e.Set("failures", obs::JsonValue::Number(static_cast<double>(s.failures)));
    e.Set("server_id", obs::JsonValue::Number(static_cast<double>(s.server_id)));
    e.Set("uptime_ms", obs::JsonValue::Number(static_cast<double>(s.last_uptime_ms)));
    e.Set("rtt_us", obs::JsonValue::Number(static_cast<double>(s.last_rtt_us)));
    e.Set("inflight_shards",
          obs::JsonValue::Number(static_cast<double>(s.inflight_shards)));
    e.Set("queue_depth", obs::JsonValue::Number(static_cast<double>(s.queue_depth)));
    e.Set("restarts_seen", obs::JsonValue::Number(static_cast<double>(s.restarts_seen)));
    if (!s.last_error.empty()) {
      e.Set("last_error", obs::JsonValue::String(s.last_error));
    }
    endpoints.Append(std::move(e));
  }
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("schema", obs::JsonValue::String(kFleetctlSchema));
  out.Set("endpoints", std::move(endpoints));
  return out;
}

void PrintStatusLine(const net::EndpointStatus& s) {
  std::printf("%-28s %-10s uptime=%llums rtt=%lluus inflight=%llu sessions=%llu",
              s.endpoint.c_str(), net::EndpointHealthName(s.state),
              static_cast<unsigned long long>(s.last_uptime_ms),
              static_cast<unsigned long long>(s.last_rtt_us),
              static_cast<unsigned long long>(s.inflight_shards),
              static_cast<unsigned long long>(s.queue_depth));
  if (s.restarts_seen > 0) {
    std::printf(" restarts=%llu", static_cast<unsigned long long>(s.restarts_seen));
  }
  if (!s.last_error.empty()) {
    std::printf("  (%s)", s.last_error.c_str());
  }
  std::printf("\n");
}

bool AllHealthy(const std::vector<net::EndpointStatus>& statuses) {
  for (const net::EndpointStatus& s : statuses) {
    if (s.state != net::EndpointHealth::kHealthy) {
      return false;
    }
  }
  return true;
}

int RunStatus(const Options& options, const Bytes& auth_key) {
  // `probes` sweeps, judged by a fresh registry with the default policy;
  // the last sweep's statuses are the verdict.
  net::HealthRegistry registry;
  std::vector<net::EndpointStatus> statuses;
  for (int round = 0; round < options.probes; ++round) {
    statuses = net::ProbeSweep(&registry, options.endpoints, auth_key, options.timeout_ms);
  }
  if (options.json) {
    std::printf("%s\n", obs::WriteJson(StatusToJson(statuses)).c_str());
  } else {
    for (const net::EndpointStatus& s : statuses) {
      PrintStatusLine(s);
    }
  }
  return AllHealthy(statuses) ? 0 : 1;
}

int RunStats(const Options& options, const Bytes& auth_key) {
  int exit_code = 0;
  for (const std::string& endpoint_name : options.endpoints) {
    auto endpoint = net::ParseEndpoint(endpoint_name);
    if (!endpoint.has_value()) {
      std::fprintf(stderr, "vdp_fleetctl: bad endpoint '%s'\n", endpoint_name.c_str());
      exit_code = 1;
      continue;
    }
    net::StatsResult result =
        net::FetchStats(*endpoint, BytesView(auth_key.data(), auth_key.size()),
                        options.timeout_ms, options.spans);
    if (!result.ok) {
      std::fprintf(stderr, "vdp_fleetctl: %s: %s\n", endpoint_name.c_str(),
                   result.error.c_str());
      exit_code = 1;
      continue;
    }
    if (options.json) {
      // One line per endpoint: {"endpoint":...,"stats":<the server's dump>}.
      auto parsed = obs::ParseJson(result.reply.stats_json);
      obs::JsonValue line = obs::JsonValue::Object();
      line.Set("endpoint", obs::JsonValue::String(endpoint_name));
      line.Set("stats", std::move(*parsed));  // FetchStats validated the parse
      std::printf("%s\n", obs::WriteJson(line).c_str());
      continue;
    }
    auto parsed = obs::ParseJson(result.reply.stats_json);
    auto snapshot = net::SnapshotFromJson(*parsed);
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "vdp_fleetctl: %s: malformed snapshot\n",
                   endpoint_name.c_str());
      exit_code = 1;
      continue;
    }
    if (options.prom) {
      std::printf("%s", net::RenderPrometheus(
                            *snapshot, "endpoint=\"" + endpoint_name + "\"")
                            .c_str());
      continue;
    }
    std::printf("== %s (server_id=%llu)\n", endpoint_name.c_str(),
                static_cast<unsigned long long>(result.reply.server_id));
    for (const obs::CounterSnapshot& c : snapshot->counters) {
      std::printf("  %-28s %llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
    }
    for (const obs::GaugeSnapshot& g : snapshot->gauges) {
      std::printf("  %-28s %lld (max %lld)\n", g.name.c_str(),
                  static_cast<long long>(g.value), static_cast<long long>(g.max));
    }
    for (const obs::HistogramSnapshot& h : snapshot->histograms) {
      std::printf("  %-28s n=%llu sum=%.2f p50=%.2f p90=%.2f p99=%.2f\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count), h.sum,
                  h.P50(), h.P90(), h.P99());
    }
    const obs::JsonValue* spans = parsed->Find("spans");
    if (spans != nullptr && spans->is_array()) {
      for (const obs::JsonValue& span : spans->items()) {
        std::printf("  span %-22s start=%.0fus dur=%.0fus %s\n",
                    span.StringOr("name", "?").c_str(), span.NumberOr("start_us", 0),
                    span.NumberOr("duration_us", 0),
                    span.StringOr("detail", "").c_str());
      }
    }
  }
  return exit_code;
}

int RunWatch(const Options& options, const Bytes& auth_key) {
  // One probe per endpoint per sweep; state accumulates across sweeps in
  // one long-lived registry, so watch shows real transitions over time.
  net::HealthRegistry registry;
  std::vector<net::EndpointStatus> statuses;
  for (long sweep_index = 0; options.count < 0 || sweep_index < options.count;
       ++sweep_index) {
    if (sweep_index > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.interval_ms));
    }
    statuses = net::ProbeSweep(&registry, options.endpoints, auth_key, options.timeout_ms);
    for (const net::EndpointStatus& s : statuses) {
      PrintStatusLine(s);
    }
    std::fflush(stdout);
  }
  return AllHealthy(statuses) ? 0 : 1;
}

int FleetctlMain(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  Options options;
  options.mode = argv[1];
  if (options.mode != "status" && options.mode != "stats" && options.mode != "watch") {
    return Usage();
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--endpoints") {
      const char* v = next();
      if (v == nullptr) {
        return Usage();
      }
      options.endpoints = net::SplitEndpointList(v);
    } else if (arg == "--auth-key-file") {
      const char* v = next();
      if (v == nullptr) {
        return Usage();
      }
      options.key_file = v;
    } else if (arg == "--timeout") {
      const char* v = next();
      if (v == nullptr) {
        return Usage();
      }
      options.timeout_ms = std::atoi(v);
    } else if (arg == "--probes") {
      const char* v = next();
      if (v == nullptr) {
        return Usage();
      }
      options.probes = std::atoi(v);
      if (options.probes < 1) {
        return Usage();  // a status with no probe has nothing to judge
      }
    } else if (arg == "--interval") {
      const char* v = next();
      if (v == nullptr) {
        return Usage();
      }
      options.interval_ms = std::atoi(v);
    } else if (arg == "--count") {
      const char* v = next();
      if (v == nullptr) {
        return Usage();
      }
      options.count = std::atol(v);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--prom") {
      options.prom = true;
    } else if (arg == "--spans") {
      options.spans = true;
    } else {
      std::fprintf(stderr, "vdp_fleetctl: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (options.endpoints.empty()) {
    std::fprintf(stderr, "vdp_fleetctl: --endpoints is required\n");
    return Usage();
  }
  const std::optional<Bytes> auth_key = net::LoadAuthKey(options.key_file);
  if (!auth_key.has_value()) {
    std::fprintf(stderr,
                 "vdp_fleetctl: no usable auth key (--auth-key-file or "
                 "$VDP_REMOTE_AUTH_KEY, hex, >= %zu bytes)\n",
                 net::kMinAuthKeyBytes);
    return 2;
  }
  if (options.mode == "status") {
    return RunStatus(options, *auth_key);
  }
  if (options.mode == "stats") {
    return RunStats(options, *auth_key);
  }
  return RunWatch(options, *auth_key);
}

}  // namespace
}  // namespace vdp

int main(int argc, char** argv) {
  return vdp::FleetctlMain(argc, argv);
}
