// vdpbench_driver: one benchmark process for one workload.
//
//   vdpbench_driver --workload clients|noise|fleet --seed N --seconds S
//                   --trace 0|1 --out-dir DIR [--setup-only]
//
// Stands the workload up (Pedersen tables, a 2-worker ThreadPool, the
// verification backend, for `fleet` two verify_server daemons reached over
// authenticated TCP, and the seeded upload population), then for S seconds
// repeats full Pi_Bin rounds (RunProtocol), each followed by a batch of newly
// arriving client uploads, and a bystander audit of the last round's
// serialized transcript, checking every output. The last stdout line is
// one JSON object of results; vdpbench/run.py turns it into the benchmark's
// report. Per-round samples and host probes go to stderr.
//
// --trace 0  the untraced pass: end-to-end metrics.
// --trace 1  the traced pass: each iteration runs RunProtocol untraced, then
//            the same round step by step with spans (traced_round.h), checks
//            both agree, and reports per-layer metrics. Spans, per-layer
//            self times and metric snapshots go to a vdp.runlog/v1 file in
//            DIR that tools/metrics_report renders.
// --setup-only  stand the workload up, report setup_s, exit.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host_probe.h"
#include "src/common/hex.h"
#include "src/common/timer.h"
#include "src/core/audit.h"
#include "src/core/protocol.h"
#include "src/group/ed25519.h"
#include "src/net/introspect.h"
#include "src/net/server_process.h"
#include "src/obs/runlog.h"
#include "traced_round.h"

namespace vdpbench {
namespace {

using G = vdp::Ed25519Group;
using S = G::Scalar;

constexpr size_t kPoolWorkers = 2;

// The three workloads. All use ed25519, delta = 2^-10, the in-process
// sharded backend for line 3 (RLC batches per shard, per-proof blame
// fallback), and batched coin-proof checks.
struct Workload {
  std::string name;
  size_t clients = 0;
  double epsilon = 0;
  size_t provers = 0;
  size_t bins = 0;
  size_t shards = 0;
  size_t servers = 0;  // loopback verify_server daemons; 0 = in process
  size_t forged = 0;   // uploads with a forged bin proof, one per chosen shard
  // Rounds timed per audit in the untraced pass. A `clients` round costs a
  // fifth of its audit, so three rounds per audit give round_s more samples
  // at little cost to audit_s.
  size_t rounds_per_audit = 1;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  // clients: line-3 validation and transcript decode dominate.
  if (name == "clients") {
    return Workload{"clients", 8192, 4.0, 1, 1, 16, 0, 0, 3};
  }
  // noise: the coin layers (commit/prove, coin verify, Morra, Eq. 10) dominate.
  if (name == "noise") {
    return Workload{"noise", 512, 1.0, 2, 4, 4, 0, 0, 1};
  }
  // fleet: the clients population, 0.1% forged, validated by two daemons.
  if (name == "fleet") {
    return Workload{"fleet", 8192, 4.0, 1, 1, 16, 2, 8, 1};
  }
  return std::nullopt;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string out_dir;
  bool setup_only = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !have_seed || args.out_dir.empty() ||
      (!args.setup_only && (!have_seconds || !(args.seconds > 0)))) {
    return std::nullopt;
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// The correctness gate: operations attempted and failed (rounds, audits,
// uploads), and the first few diagnostics of failed checks.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  // One check within an operation; keeps the diagnostic when it fails.
  bool Expect(bool ok, const std::string& what) {
    if (!ok && errors.size() < 16) {
      errors.push_back(what);
    }
    return ok;
  }

  // One operation, failed when any of its checks failed.
  void Count(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// The seeded upload population, with its expected verdicts.
struct Population {
  std::vector<vdp::ClientBundle<G>> clients;
  std::vector<size_t> forged;             // ascending
  std::vector<size_t> expected_accepted;  // ascending
  std::vector<uint64_t> true_counts;      // [M] over the expected accepted set
  std::vector<double> upload_ms;          // MakeClientBundle time per client
  size_t upload_bytes = 0;                // serialized size of one upload
};

// A client's private input: a bit that is 1 for ~30% of clients (M = 1), or
// a uniformly chosen bin (M > 1).
uint32_t DrawValue(const Workload& w, vdp::SecureRng& rng) {
  return w.bins == 1 ? (rng.UniformBelow(10) < 3 ? 1u : 0u)
                     : static_cast<uint32_t>(rng.UniformBelow(w.bins));
}

Population MakePopulation(const Workload& w, const vdp::ProtocolConfig& config,
                          const vdp::Pedersen<G>& ped, const std::string& label) {
  Population pop;
  vdp::SecureRng rng(label + "/population");
  vdp::SecureRng client_rng = rng.Fork("clients");

  // Forged uploads: `forged` distinct shards, one seeded position in each.
  const size_t shard_size = w.clients / w.shards;
  std::vector<size_t> shard_ids(w.shards);
  for (size_t s = 0; s < w.shards; ++s) {
    shard_ids[s] = s;
  }
  for (size_t s = 0; s < w.forged; ++s) {
    std::swap(shard_ids[s], shard_ids[s + rng.UniformBelow(w.shards - s)]);
    pop.forged.push_back(shard_ids[s] * shard_size + rng.UniformBelow(shard_size));
  }
  std::sort(pop.forged.begin(), pop.forged.end());

  pop.true_counts.assign(w.bins, 0);
  pop.clients.reserve(w.clients);
  pop.upload_ms.reserve(w.clients);
  size_t next_forged = 0;
  for (size_t i = 0; i < w.clients; ++i) {
    const uint32_t value = DrawValue(w, rng);
    vdp::Stopwatch timer;
    pop.clients.push_back(vdp::MakeClientBundle<G>(value, i, config, ped, client_rng));
    pop.upload_ms.push_back(timer.ElapsedMillis());
    if (next_forged < pop.forged.size() && pop.forged[next_forged] == i) {
      pop.clients.back().upload.bin_proofs[0].z0 += S::One();
      ++next_forged;
      continue;
    }
    pop.expected_accepted.push_back(i);
    pop.true_counts[w.bins == 1 ? 0 : value] += w.bins == 1 ? value : 1;
  }
  pop.upload_bytes = pop.clients.front().upload.Serialize().size();
  return pop;
}

// Two verify_server daemons on ephemeral loopback ports sharing a fresh
// fleet secret. The key file lives in the benchmark's own directory.
class Fleet {
 public:
  Fleet(size_t n, const std::string& dir, const std::string& label) {
    vdp::SecureRng rng(label + "/fleet-key");
    key_ = rng.RandomBytes(32);
    key_hex_ = vdp::HexEncode(key_);
    key_file_ = dir + "/fleet-" + std::to_string(getpid()) + ".key";
    {
      std::ofstream out(key_file_);
      out << key_hex_ << "\n";
      if (!out) {
        return;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      vdp::net::SpawnServerOptions options;
      options.auth_key_file = key_file_;
      options.server_id = i;
      auto server = vdp::net::SpawnVerifyServer(options);
      if (server.has_value()) {
        servers_.push_back(std::move(*server));
      }
    }
  }
  ~Fleet() {
    for (auto& server : servers_) {
      vdp::net::DestroyServer(&server);
    }
    if (!key_file_.empty()) {
      unlink(key_file_.c_str());
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  size_t size() const { return servers_.size(); }

  // The authenticated admin-plane handshake with every server: connect,
  // hello pair, MAC-verified probe and reply.
  bool ProbeAll() const {
    for (const auto& server : servers_) {
      auto endpoint = vdp::net::ParseEndpoint(server.endpoint);
      if (!endpoint.has_value() || !vdp::net::ProbeEndpoint(*endpoint, key_, 10'000).ok) {
        return false;
      }
    }
    return true;
  }

  // Sum of one counter over every server's own registry (vdp.stats/v1 over
  // the admin plane); nullopt when any fetch fails.
  std::optional<uint64_t> ServerCounter(const std::string& name) const {
    uint64_t total = 0;
    for (const auto& server : servers_) {
      auto endpoint = vdp::net::ParseEndpoint(server.endpoint);
      if (!endpoint.has_value()) {
        return std::nullopt;
      }
      auto stats = vdp::net::FetchStats(*endpoint, key_, 10'000, /*include_spans=*/false);
      if (!stats.ok) {
        return std::nullopt;
      }
      auto json = vdp::obs::ParseJson(stats.reply.stats_json);
      if (!json.has_value()) {
        return std::nullopt;
      }
      auto snapshot = vdp::net::SnapshotFromJson(*json);
      if (!snapshot.has_value()) {
        return std::nullopt;
      }
      total += snapshot->CounterValue(name);
    }
    return total;
  }

  void ApplyTo(vdp::ProtocolConfig* config) const {
    config->remote_verifiers.clear();
    for (const auto& server : servers_) {
      config->remote_verifiers.push_back(server.endpoint);
    }
    config->remote_auth_key_hex = key_hex_;
  }

 private:
  vdp::Bytes key_;
  std::string key_hex_;
  std::string key_file_;
  std::vector<vdp::net::ServerProcess> servers_;
};

// Everything a round needs, built by Setup and timed by phase.
struct Bench {
  Workload w;
  std::string label;  // seeds every generator of this run
  vdp::ProtocolConfig config;
  vdp::ProtocolConfig auditor_config;  // same protocol, always in process
  std::unique_ptr<vdp::Pedersen<G>> ped;
  std::unique_ptr<vdp::ThreadPool> pool;
  std::unique_ptr<Fleet> fleet;
  Population pop;
  double tables_s = 0;
  double backend_s = 0;  // pool + backend + (fleet) daemons and handshake
  double clients_s = 0;
  double setup_s = 0;
};

std::optional<std::string> Setup(const Args& args, const Workload& w, double t_start,
                                 Bench* b) {
  b->w = w;
  b->label = "vdpbench/" + w.name + "/" + std::to_string(args.seed);
  vdp::ProtocolConfig& config = b->config;
  config.epsilon = w.epsilon;
  config.delta = 1.0 / 1024;
  config.num_provers = w.provers;
  config.num_bins = w.bins;
  config.morra_mode = vdp::MorraMode::kPedersen;
  config.batch_verify = true;
  config.num_verify_shards = w.shards;
  config.session_id = "vdpbench-" + w.name + "-" + std::to_string(args.seed);
  b->auditor_config = config;

  double t = WallSeconds();
  b->ped = std::make_unique<vdp::Pedersen<G>>();
  b->tables_s = WallSeconds() - t;

  t = WallSeconds();
  b->pool = std::make_unique<vdp::ThreadPool>(kPoolWorkers);
  if (w.servers > 0) {
    b->fleet = std::make_unique<Fleet>(w.servers, args.out_dir, b->label);
    if (b->fleet->size() != w.servers) {
      return "could not spawn " + std::to_string(w.servers) + " verify_server daemons";
    }
    if (!b->fleet->ProbeAll()) {
      return "fleet handshake/probe failed";
    }
    b->fleet->ApplyTo(&config);
  }
  if (auto error = config.Validate(); error.has_value()) {
    return error->Render();
  }
  // The backend the config selects, constructed once to prove it can be.
  if (vdp::MakeVerifyBackend<G>(config, *b->ped) == nullptr) {
    return "no verify backend";
  }
  b->backend_s = WallSeconds() - t;

  t = WallSeconds();
  b->pop = MakePopulation(w, config, *b->ped, b->label);
  b->clients_s = WallSeconds() - t;
  b->setup_s = WallSeconds() - t_start;
  return std::nullopt;
}

// Fresh provers and verifier generator for one round. The same round seed
// always yields the same generators, so two rounds at one seed are equal.
struct RoundParties {
  std::vector<std::unique_ptr<vdp::Prover<G>>> owned;
  std::vector<vdp::Prover<G>*> provers;
  std::optional<vdp::SecureRng> verifier_rng;
};

RoundParties MakeParties(const Bench& b, uint64_t round_seed) {
  RoundParties parties;
  vdp::SecureRng rng(b.label + "/round/" + std::to_string(round_seed));
  for (size_t k = 0; k < b.config.num_provers; ++k) {
    parties.owned.push_back(std::make_unique<vdp::Prover<G>>(
        k, b.config, *b.ped, rng.Fork("prover-" + std::to_string(k))));
    parties.provers.push_back(parties.owned.back().get());
  }
  parties.verifier_rng.emplace(rng.Fork("verifier"));
  return parties;
}

// Gate on one round's result: accepted verdict, exactly the expected
// accepted set, and every bin's debiased count within a binomial tail bound
// of the true count. *misjudged receives the uploads judged wrongly.
bool CheckRound(const Bench& b, const vdp::ProtocolResult& r, Gate* gate,
                const std::string& what, uint64_t* misjudged) {
  const auto& expected = b.pop.expected_accepted;
  std::vector<size_t> diff;
  std::set_symmetric_difference(r.accepted_clients.begin(), r.accepted_clients.end(),
                                expected.begin(), expected.end(), std::back_inserter(diff));
  *misjudged = diff.size();
  if (!gate->Expect(r.accepted() && r.raw_histogram.size() == b.w.bins,
                    what + ": verdict " + r.verdict.detail)) {
    return false;
  }
  bool ok = gate->Expect(diff.empty(), what + ": " + std::to_string(diff.size()) +
                                           " uploads misjudged");
  // raw - true is a sum of K Binomial(nb, 1/2) draws: in [0, K nb], and by
  // Hoeffding within t of K nb / 2 except with probability 2 exp(-2t^2/(K nb))
  // = 1e-9.
  const double trials = static_cast<double>(b.config.num_provers * b.config.NumCoins());
  const double t = std::sqrt(trials * std::log(2.0 / 1e-9) / 2.0);
  for (size_t bin = 0; bin < b.w.bins; ++bin) {
    const double noise = static_cast<double>(r.raw_histogram[bin]) -
                         static_cast<double>(b.pop.true_counts[bin]);
    const double debiased_error = r.histogram[bin] - static_cast<double>(b.pop.true_counts[bin]);
    ok &= gate->Expect(noise >= 0 && noise <= trials && std::fabs(debiased_error) <= t,
                       what + ": bin " + std::to_string(bin) +
                           " count outside the binomial bound");
  }
  return ok;
}

bool CheckAudit(const vdp::AuditReport& audit, bool decoded, const vdp::ProtocolResult& round,
                Gate* gate, const std::string& what) {
  return gate->Expect(decoded && audit.accepted() &&
                          audit.accepted_clients == round.accepted_clients &&
                          audit.raw_histogram == round.raw_histogram,
                      what + ": audit disagrees with the round (" + audit.verdict.detail + ")");
}

struct Output {
  Gate gate;
  std::vector<std::pair<std::string, double>> metrics;  // units are run.py's

  void Add(const std::string& name, double value) { metrics.emplace_back(name, value); }
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(const Output& out) {
  std::string line = "{\"correct\": ";
  line += out.gate.failed == 0 && out.gate.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.gate.attempted);
  line += ", \"failed\": " + std::to_string(out.gate.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, value] = out.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + name + "\": " + Num(value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// The run's measuring window: another iteration starts while at least half
// of one as long as the last still fits, so a run lasts --seconds on
// average whatever an iteration costs.
class Deadline {
 public:
  explicit Deadline(double seconds) : end_(WallSeconds() + seconds) {}
  void StartIteration() {
    const double now = WallSeconds();
    if (started_ > 0) {
      last_ = now - started_;
    }
    started_ = now;
  }
  bool RoomForAnother() const {
    const double now = WallSeconds();
    return now + std::max(last_, now - started_) / 2 <= end_;
  }

 private:
  double end_;
  double started_ = 0;
  double last_ = 0;
};

double PeakRssMb() { return static_cast<double>(vdp::obs::CurrentRssHwmKb()) / 1024.0; }

// Uploads from clients arriving between rounds and audits: kArrivals fresh
// uploads, each MakeClientBundle call timed, all of which must validate.
// The host's speed for this code swings by up to 2x from one sub-second
// window to the next, so client_upload_ms pools many short windows spread
// over the whole run rather than the one-second set-up window.
// Returns the number of uploads that failed to validate.
constexpr size_t kArrivals = 256;

size_t ArrivingUploads(const Bench& b, uint64_t batch, std::vector<double>* upload_ms) {
  vdp::SecureRng rng(b.label + "/arrivals/" + std::to_string(batch));
  std::vector<vdp::ClientUploadMsg<G>> uploads;
  uploads.reserve(kArrivals);
  for (size_t j = 0; j < kArrivals; ++j) {
    const uint32_t value = DrawValue(b.w, rng);
    vdp::Stopwatch timer;
    vdp::ClientBundle<G> bundle = vdp::MakeClientBundle<G>(value, j, b.config, *b.ped, rng);
    upload_ms->push_back(timer.ElapsedMillis());
    uploads.push_back(std::move(bundle.upload));
  }
  vdp::VerifyOptions options;
  options.compute_products = false;
  options.pool = b.pool.get();
  const auto report =
      vdp::MakeVerifyBackend<G>(b.auditor_config, *b.ped)->VerifyAll(uploads, options);
  return kArrivals - report.accepted.size();
}

// --- the untraced pass ------------------------------------------------------

void UntracedPass(const Args& args, Bench& b, Output* out) {
  std::vector<double> round_s, audit_s, upload_ms;
  size_t transcript_bytes = 0;
  uint64_t misjudged_uploads = 0;
  uint64_t round_seed = 0;
  // Client uploads arrive after every round and after every audit: each
  // batch is timed and validated. Returns the batch's mean upload time.
  auto arrivals = [&](uint64_t batch, bool timed) {
    std::vector<double> batch_ms;
    const size_t rejected = ArrivingUploads(b, batch, &batch_ms);
    out->gate.Count(out->gate.Expect(rejected == 0, "arrivals " + std::to_string(batch) + ": " +
                                                        std::to_string(rejected) +
                                                        " honest uploads rejected"));
    out->gate.attempted += batch_ms.size();
    out->gate.failed += rejected;
    if (timed) {
      upload_ms.insert(upload_ms.end(), batch_ms.begin(), batch_ms.end());
    }
    return Mean(batch_ms);
  };
  // Iteration 0 warms caches, allocator arenas and the backend's lazy state
  // and is checked but not timed into the medians.
  Deadline deadline(args.seconds);
  for (uint64_t i = 0; i < 4 || deadline.RoomForAnother(); ++i) {
    deadline.StartIteration();
    vdp::ProtocolResult result;
    vdp::PublicTranscript<G> transcript;
    for (size_t r = 0; r < b.w.rounds_per_audit; ++r, ++round_seed) {
      const HostSample host = ProbeHost();
      RoundParties parties = MakeParties(b, round_seed);
      transcript = vdp::PublicTranscript<G>{};
      const double t0 = WallSeconds();
      result = vdp::RunProtocol(b.config, *b.ped, b.pop.clients, parties.provers,
                                *parties.verifier_rng, b.pool.get(), &transcript);
      const double round_wall = WallSeconds() - t0;
      const std::string what = "round " + std::to_string(round_seed);
      uint64_t misjudged = 0;
      out->gate.Count(CheckRound(b, result, &out->gate, what, &misjudged));
      misjudged_uploads = std::max(misjudged_uploads, misjudged);

      if (i > 0) {
        round_s.push_back(round_wall);
      }
      const double batch_ms = arrivals(2 * round_seed, i > 0);
      std::fprintf(stderr, "%s %s: round_s=%.4f upload_ms=%.4f host.ref_ms=%.2f host.par=%.2f\n",
                   b.w.name.c_str(), what.c_str(), round_wall, batch_ms, host.ref_ms, host.par);
    }

    // A bystander audits the last round's published transcript.
    const vdp::Bytes bytes = vdp::SerializeTranscript(transcript);
    transcript_bytes = bytes.size();
    const double t1 = WallSeconds();
    auto decoded = vdp::DeserializeTranscript<G>(bytes);
    vdp::AuditReport audit;
    if (decoded.has_value()) {
      audit = vdp::AuditTranscript(*decoded, b.auditor_config, *b.ped, b.pool.get());
    }
    const double audit_wall = WallSeconds() - t1;
    const std::string what = "audit " + std::to_string(i);
    out->gate.Count(CheckAudit(audit, decoded.has_value(), result, &out->gate, what));
    if (i > 0) {
      audit_s.push_back(audit_wall);
    }
    const double batch_ms = arrivals(2 * round_seed + 1, i > 0);
    std::fprintf(stderr, "%s %s: audit_s=%.4f upload_ms=%.4f\n", b.w.name.c_str(),
                 what.c_str(), audit_wall, batch_ms);
  }
  // Each population upload is one more operation; it failed if any round
  // judged it wrongly.
  out->gate.attempted += b.pop.clients.size();
  out->gate.failed += misjudged_uploads;

  out->Add("round_s", Median(round_s));
  out->Add("audit_s", Median(audit_s));
  // A mean, not a median: one upload takes well under a millisecond, so each
  // sample sees the host in a single state, and on a host whose speed flips
  // between two levels the median jumps from one level to the other with the
  // share of fast windows. The mean moves with that share smoothly.
  out->Add("client_upload_ms", Mean(upload_ms));
  out->Add("transcript_mb", static_cast<double>(transcript_bytes) / 1e6);
  out->Add("setup_s", b.setup_s);
  out->Add("peak_rss_mb", PeakRssMb());
  std::fprintf(stderr,
               "%s: %zu rounds, %zu audits, %zu uploads timed; medians round_s %.4f, "
               "audit_s %.4f; mean client_upload_ms %.4f\n",
               b.w.name.c_str(), round_s.size(), audit_s.size(), upload_ms.size(),
               Median(round_s), Median(audit_s), Mean(upload_ms));
}

// --- the traced pass --------------------------------------------------------

// Counts that must repeat bit-for-bit across rounds of one run.
using ExactCounts = std::map<std::string, uint64_t>;

void TracedPass(const Args& args, Bench& b, Output* out) {
  const std::string log_path =
      args.out_dir + "/trace-" + b.w.name + "-" + std::to_string(args.seed) + ".jsonl";
  std::remove(log_path.c_str());
  auto log = vdp::obs::RunLogWriter::Open(log_path);
  if (log == nullptr) {
    out->gate.Count(out->gate.Expect(false, "cannot open " + log_path));
    return;
  }
  vdp::obs::RunHeader header;
  header.tool = "vdpbench_driver";
  header.group = G::Name();
  header.n_uploads = b.w.clients;
  header.num_shards = b.w.shards;
  header.pool_threads = kPoolWorkers;
  header.remote_endpoints = b.w.servers;
  header.notes = "workload=" + b.w.name + " seed=" + std::to_string(args.seed) +
                 " K=" + std::to_string(b.w.provers) + " M=" + std::to_string(b.w.bins) +
                 " nb=" + std::to_string(b.config.NumCoins());
  log->Header(header);

  std::map<std::string, std::vector<double>> samples;
  std::optional<ExactCounts> first_counts;
  std::optional<std::vector<uint64_t>> seed0_histogram;
  uint64_t misjudged_uploads = 0;
  Deadline deadline(args.seconds);
  for (uint64_t i = 0; i < 2 || deadline.RoomForAnother(); ++i) {
    deadline.StartIteration();
    // Rounds 0 and 1 share a seed: exact counts and outputs must repeat.
    const uint64_t round_seed = i == 1 ? 0 : i;
    const std::string what = "traced round " + std::to_string(i);
    const HostSample host = ProbeHost();
    samples["host.ref_ms"].push_back(host.ref_ms);
    samples["host.par"].push_back(host.par);

    // RunProtocol, untraced, with the registry window around it.
    RoundParties plain_parties = MakeParties(b, round_seed);
    vdp::PublicTranscript<G> plain_transcript;
    vdp::obs::MetricsRegistry::Global().ResetAll();
    double t0 = WallSeconds();
    vdp::ProtocolResult plain = vdp::RunProtocol(b.config, *b.ped, b.pop.clients,
                                                 plain_parties.provers,
                                                 *plain_parties.verifier_rng, b.pool.get(),
                                                 &plain_transcript);
    const double plain_s = WallSeconds() - t0;
    const vdp::obs::MetricsSnapshot round_metrics =
        vdp::obs::MetricsRegistry::Global().Snapshot();

    // The same round, step by step, traced.
    std::optional<uint64_t> server_msm_calls0, server_msm_scalars0;
    if (b.fleet) {
      server_msm_calls0 = b.fleet->ServerCounter(vdp::obs::kMsmCalls);
      server_msm_scalars0 = b.fleet->ServerCounter(vdp::obs::kMsmScalars);
    }
    RoundParties parties = MakeParties(b, round_seed);
    vdp::obs::TraceCollector tracer;
    t0 = WallSeconds();
    TracedRound<G> traced = RunTracedRound(b.config, *b.ped, b.pop.clients, parties.provers,
                                           *parties.verifier_rng, b.pool.get(), &tracer);
    const double traced_s = WallSeconds() - t0;
    Gate& gate = out->gate;
    uint64_t server_msm_calls = 0, server_msm_scalars = 0;
    bool traced_ok = true;
    if (b.fleet) {
      auto calls = b.fleet->ServerCounter(vdp::obs::kMsmCalls);
      auto scalars = b.fleet->ServerCounter(vdp::obs::kMsmScalars);
      const bool fetched = calls && scalars && server_msm_calls0 && server_msm_scalars0;
      traced_ok &= gate.Expect(fetched, what + ": fleet stats fetch failed");
      if (fetched) {
        server_msm_calls = *calls - *server_msm_calls0;
        server_msm_scalars = *scalars - *server_msm_scalars0;
      }
    }

    // Gates: both rounds against expectations, the traced round against
    // RunProtocol, the blame, and determinism at one seed.
    uint64_t misjudged = 0;
    gate.Count(CheckRound(b, plain, &gate, what + " (RunProtocol)", &misjudged));
    misjudged_uploads = std::max(misjudged_uploads, misjudged);
    traced_ok &= CheckRound(b, traced.result, &gate, what, &misjudged);
    traced_ok &= gate.Expect(traced.result.verdict.code == plain.verdict.code &&
                                 traced.result.accepted_clients == plain.accepted_clients &&
                                 traced.result.raw_histogram == plain.raw_histogram,
                             what + ": step-by-step round differs from RunProtocol");
    std::vector<size_t> blamed;
    bool reasons_ok = true;
    for (const auto& r : traced.report.rejections) {
      blamed.push_back(r.index);
      reasons_ok = reasons_ok && r.code == vdp::RejectCode::kProofInvalid;
    }
    traced_ok &= gate.Expect(blamed == b.pop.forged && reasons_ok,
                             what + ": rejections are not exactly the forged uploads");
    if (round_seed == 0) {
      if (!seed0_histogram) {
        seed0_histogram = plain.raw_histogram;
      }
      traced_ok &= gate.Expect(*seed0_histogram == plain.raw_histogram &&
                                   plain.raw_histogram == traced.result.raw_histogram,
                               what + ": same seed, different histogram");
    }

    TracedAudit<G> audit =
        RunTracedAudit(traced.transcript, b.auditor_config, *b.ped, b.pool.get(), &tracer);
    gate.Count(CheckAudit(audit.report, audit.decoded, traced.result, &gate, what));

    // Per-layer times from the spans.
    const std::vector<vdp::obs::SpanRecord> spans = tracer.TakeSpans();
    const LayerTimes round = AnalyzeSpans(spans, "round");
    const LayerTimes audit_layers = AnalyzeSpans(spans, "audit");
    auto total = [&](const LayerTimes& lt, const char* name) {
      auto it = lt.total_s.find(name);
      return it == lt.total_s.end() ? 0.0 : it->second;
    };
    const double verify_s = total(round, "line3.validate");
    const double commit_s = total(round, "line4.commit");
    const double shard_busy_s = total(round, "shard");
    samples["verify.s"].push_back(verify_s);
    samples["verify.us_per_upload"].push_back(verify_s * 1e6 /
                                              static_cast<double>(b.w.clients));
    samples["verify.par"].push_back(verify_s > 0 ? traced.validate_cpu_s / verify_s : 0);
    samples["shard.busy_s"].push_back(shard_busy_s);
    samples["core.share_check_s"].push_back(total(round, "line3.share_check"));
    samples["prover.load_s"].push_back(total(round, "line2.load_shares"));
    samples["prover.commit_s"].push_back(commit_s);
    samples["prover.commit_par"].push_back(commit_s > 0 ? traced.commit_cpu_s / commit_s : 0);
    samples["verifier.coin_proofs_s"].push_back(total(round, "line5-6.coin_proofs"));
    samples["morra.s"].push_back(total(round, "line7-8.morra"));
    samples["prover.output_s"].push_back(total(round, "line9-11.output"));
    samples["verifier.final_s"].push_back(total(round, "line12-13.final"));
    samples["driver.self_s"].push_back(round.root_self_s);
    samples["audit.encode_s"].push_back(total(audit_layers, "audit.encode"));
    samples["audit.decode_s"].push_back(total(audit_layers, "audit.decode"));
    samples["audit.check_s"].push_back(total(audit_layers, "audit.check"));
    samples["trace.round_s"].push_back(traced_s);
    samples["trace.overhead_s"].push_back(traced_s - plain_s);

    const vdp::obs::MetricsSnapshot& vm = traced.validate_metrics;
    int64_t inflight_hwm = 0;
    for (const auto& g : vm.gauges) {
      if (g.name == vdp::obs::kStreamInflightShards) {
        inflight_hwm = g.max;
      }
    }
    // Producer waits on the in-flight window (the backpressure.wait_us
    // histogram's count): the one-shot bulk path never blocks, so its total
    // wait time would read 0 on every run.
    double backpressure_waits = 0;
    for (const auto& h : vm.histograms) {
      if (h.name == vdp::obs::kBackpressureWaitUs) {
        backpressure_waits = static_cast<double>(h.count);
      }
    }
    samples["stream.inflight_shards_hwm"].push_back(static_cast<double>(inflight_hwm));
    samples["backpressure.waits"].push_back(backpressure_waits);

    ExactCounts counts;
    counts["client.upload_bytes"] = b.pop.upload_bytes;
    counts["verify.rejected"] = traced.report.rejections.size();
    counts["verify.shards"] = traced.report.num_shards;
    counts["shard.fallbacks"] = traced.report.shards_with_fallback;
    counts["verify.msm_calls"] = vm.CounterValue(vdp::obs::kMsmCalls) + server_msm_calls;
    counts["verify.msm_scalars"] = vm.CounterValue(vdp::obs::kMsmScalars) + server_msm_scalars;
    counts["morra.coins"] = traced.morra_coins;
    counts["audit.transcript_bytes"] = audit.transcript_bytes;
    counts["wire.bytes_out"] = round_metrics.CounterValue(vdp::obs::kWireBytesOut);
    counts["wire.bytes_in"] = round_metrics.CounterValue(vdp::obs::kWireBytesIn);
    counts["wire.frames_out"] = round_metrics.CounterValue(vdp::obs::kWireFramesOut);
    counts["fleet.shards_remote"] = round_metrics.CounterValue(vdp::obs::kFleetShardsRemote);
    counts["fleet.shards_recovered"] =
        round_metrics.CounterValue(vdp::obs::kFleetShardsRecovered);
    counts["fleet.retries"] = round_metrics.CounterValue(vdp::obs::kFleetRetries);
    counts["auth.failures"] = round_metrics.CounterValue(vdp::obs::kAuthFailures);
    if (!first_counts) {
      first_counts = counts;
    }
    traced_ok &= gate.Expect(counts == *first_counts, what + ": exact counts differ from round 0");

    // Run-log: the layer table (direct children of the round + driver self
    // time, which sum to the round's wall time), self time of every span
    // name in the tree, the metric window of the validate call, the spans.
    std::vector<std::pair<std::string, double>> layers;
    double layers_ms = 0;
    for (const char* name : {"line3.validate", "line3.share_check", "line2.load_shares",
                             "line4.commit", "line5-6.coin_proofs", "line7-8.morra",
                             "line9-11.output", "line12-13.final", "publish"}) {
      layers.emplace_back(name, total(round, name) * 1e3);
      layers_ms += layers.back().second;
    }
    layers.emplace_back("driver.self", round.root_self_s * 1e3);
    std::vector<std::pair<std::string, double>> self_ms;
    for (const auto& [name, s] : round.self_s) {
      self_ms.emplace_back(name, s * 1e3);
    }
    log->Stages("round.layers", b.w.name, layers, round.root_s * 1e3,
                {{"round", static_cast<double>(i)}, {"seed", static_cast<double>(round_seed)},
                 {"untraced_ms", plain_s * 1e3}});
    log->Stages("round.self", b.w.name, self_ms, round.root_s * 1e3,
                {{"round", static_cast<double>(i)}});
    std::vector<std::pair<std::string, double>> audit_ms;
    for (const auto& [name, s] : audit_layers.self_s) {
      audit_ms.emplace_back(name, s * 1e3);
    }
    audit_ms.emplace_back("driver.self", audit_layers.root_self_s * 1e3);
    log->Stages("audit.layers", b.w.name, audit_ms, audit_layers.root_s * 1e3,
                {{"round", static_cast<double>(i)}});
    log->Metrics(vm);
    log->Spans(spans);
    // The layer table must account for the round: layers + driver self time
    // equal the round span (to the microsecond rounding of each span).
    traced_ok &= gate.Expect(std::fabs(layers_ms + round.root_self_s * 1e3 -
                                       round.root_s * 1e3) <
                                 0.05 * static_cast<double>(layers.size()),
                             what + ": layer spans do not account for the round");
    gate.Count(traced_ok);
    std::fprintf(stderr,
                 "%s %s: untraced_s=%.4f traced_s=%.4f verify_s=%.4f commit_s=%.4f "
                 "host.ref_ms=%.2f host.par=%.2f\n",
                 b.w.name.c_str(), what.c_str(), plain_s, traced_s, verify_s, commit_s,
                 host.ref_ms, host.par);
  }
  log->Footer();
  out->gate.attempted += b.pop.clients.size();
  out->gate.failed += misjudged_uploads;

  for (const auto& [name, values] : samples) {
    out->Add(name, Median(values));
  }
  for (const auto& [name, value] : *first_counts) {
    out->Add(name, static_cast<double>(value));
  }
  const double shards = static_cast<double>(first_counts->at("verify.shards"));
  out->Add("fleet.remote_share",
           shards > 0 ? static_cast<double>(first_counts->at("fleet.shards_remote")) / shards
                      : 0);
  out->Add("client.upload_ms.p99", Percentile(b.pop.upload_ms, 0.99));
  out->Add("setup.tables_s", b.tables_s);
  out->Add("setup.clients_s", b.clients_s);
  out->Add("setup.fleet_s", b.backend_s);
  out->Add("mem.rss_hwm_kb", static_cast<double>(vdp::obs::CurrentRssHwmKb()));
}

int Main(int argc, char** argv) {
  const double t_start = WallSeconds();
  auto args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: vdpbench_driver --workload clients|noise|fleet --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR [--setup-only]\n");
    return 2;
  }
  auto workload = FindWorkload(args->workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  // Hermetic: no inherited test hooks or run-log sinks reach the program or
  // the daemons it spawns.
  for (const char* var : {"VDP_METRICS_OUT", "VDP_SERVER_FAULT", "VDP_REMOTE_VERIFIERS",
                          "VDP_NUM_VERIFY_SHARDS", "VDP_VERIFY_WORKERS"}) {
    unsetenv(var);
  }
  setenv("VDP_GIT_SHA", "unknown", /*overwrite=*/0);
  mkdir(args->out_dir.c_str(), 0755);

  Bench bench;
  if (auto error = Setup(*args, *workload, t_start, &bench); error.has_value()) {
    std::fprintf(stderr, "setup failed: %s\n", error->c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s setup: %.4f s (tables %.4f, pool+backend+fleet %.4f, %zu clients %.4f)\n",
               workload->name.c_str(), bench.setup_s, bench.tables_s, bench.backend_s,
               bench.pop.clients.size(), bench.clients_s);

  Output out;
  if (args->setup_only) {
    out.gate.Count(
        out.gate.Expect(bench.pop.clients.size() == workload->clients, "population size"));
    out.Add("setup_s", bench.setup_s);
  } else if (args->trace == 0) {
    UntracedPass(*args, bench, &out);
  } else {
    TracedPass(*args, bench, &out);
  }
  for (const std::string& e : out.gate.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  PrintResult(out);
  return out.gate.failed == 0 && out.gate.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace vdpbench

int main(int argc, char** argv) { return vdpbench::Main(argc, argv); }
