// Backend conformance: every registered VerifyBackend is one execution
// strategy for the same abstract public verifier, so on the same adversarial
// upload set all of them must produce bit-identical accept sets, commitment
// products, and rejection reasons -- streaming or one-shot, against the
// per-proof oracle as ground truth.
//
// The whole suite is generic over the group backend and dispatches through
// the group registry: VDP_GROUP selects which compiled-in group runs (the CI
// group-matrix job exports ed25519; default modp-256), so the same binary
// proves conformance for the mod-p and curve arithmetic paths alike. The
// remote backend runs on its own spawned verify_workers fleet, whose size
// honors VDP_VERIFY_WORKERS (the CI backend-matrix job exports 0 and 3), so
// the fleet shape under test varies across workflow configurations without
// changing any decision; the fleet-failure cases below drive explicit
// remote_verifiers fleets.
#include <gtest/gtest.h>
#include <signal.h>

#include <cstdlib>
#include <random>

#include "src/core/verifier.h"
#include "src/group/registry.h"
#include "src/net/server_process.h"
#include "src/obs/trace.h"
#include "src/verify/factory.h"

namespace vdp {
namespace {

size_t WorkersFromEnv() {
  if (const char* env = std::getenv("VDP_VERIFY_WORKERS")) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 1) {
      return static_cast<size_t>(parsed);
    }
  }
  return 2;
}

// Runs fn(GroupTag<G>{}) for the group selected by VDP_GROUP (default
// modp-256). Every conformance test body routes through here, so exporting
// the variable re-points the entire suite at another backend group.
template <typename Fn>
void RunForGroup(Fn&& fn) {
  const char* env = std::getenv("VDP_GROUP");
  const std::string name = (env != nullptr && *env != '\0') ? env : ModP256::Name();
  ASSERT_TRUE(DispatchRegisteredGroup(name, std::forward<Fn>(fn)))
      << "VDP_GROUP names no compiled-in group: " << name;
}

template <PrimeOrderGroup G>
struct Suite {
  using S = typename G::Scalar;
  using Element = typename G::Element;

  // One shared protocol surface: identical session id (and thus identical
  // Fiat-Shamir contexts) for every backend, with only the execution-selection
  // flags varying.
  static ProtocolConfig ConfigFor(VerifyBackendKind kind) {
    ProtocolConfig config;
    config.epsilon = 50.0;  // nb = 31: keeps upload construction fast
    config.num_provers = 2;
    config.num_bins = 3;
    config.session_id = "backend-conformance";
    switch (kind) {
      case VerifyBackendKind::kPerProof:
        break;
      case VerifyBackendKind::kSharded:
        config.num_verify_shards = 5;
        break;
      case VerifyBackendKind::kRemote:
        // A real loopback socket fleet, spawned by each backend on first use
        // and down with it. The servers select this group from the wire
        // setup frame.
        config.num_verify_shards = 5;
        config.verify_workers = WorkersFromEnv();
        break;
    }
    return config;
  }

  // The shared adversarial corpus: honest uploads with every rejection class
  // represented, spread across shard boundaries -- a tampered proof response,
  // a malformed shape, a tampered sub-challenge, and a broken one-hot opening.
  static std::vector<ClientUploadMsg<G>> Corpus(const Pedersen<G>& ped) {
    const ProtocolConfig config = ConfigFor(VerifyBackendKind::kPerProof);
    SecureRng rng("backend-conformance-corpus");
    std::vector<ClientUploadMsg<G>> uploads;
    for (size_t i = 0; i < 22; ++i) {
      uploads.push_back(
          MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i, config, ped, rng)
              .upload);
    }
    uploads[3].bin_proofs[0].z0 += S::One();        // invalid OR proof
    uploads[9].commitments.clear();                 // malformed shape
    uploads[14].bin_proofs[1].e1 += S::One();       // tampered sub-challenge
    uploads[19].sum_randomness += S::One();         // breaks the one-hot opening
    return uploads;
  }

  static std::vector<std::vector<Element>> DirectProducts(
      const ProtocolConfig& config, const std::vector<ClientUploadMsg<G>>& uploads,
      const std::vector<size_t>& accepted) {
    std::vector<std::vector<Element>> products(
        config.num_provers, std::vector<Element>(config.num_bins, G::Identity()));
    for (size_t idx : accepted) {
      for (size_t k = 0; k < config.num_provers; ++k) {
        for (size_t m = 0; m < config.num_bins; ++m) {
          products[k][m] = G::Mul(products[k][m], uploads[idx].commitments[k][m]);
        }
      }
    }
    return products;
  }

  static void ExpectSameDecisions(const VerifyReport<G>& expected, const VerifyReport<G>& actual) {
    EXPECT_EQ(expected.accepted, actual.accepted);
    EXPECT_EQ(expected.rejections, actual.rejections);
    EXPECT_EQ(expected.RenderedReasons(), actual.RenderedReasons());
    EXPECT_EQ(expected.total_uploads, actual.total_uploads);
    ASSERT_EQ(expected.has_products(), actual.has_products());
    ASSERT_EQ(expected.commitment_products.size(), actual.commitment_products.size());
    for (size_t k = 0; k < expected.commitment_products.size(); ++k) {
      ASSERT_EQ(expected.commitment_products[k].size(), actual.commitment_products[k].size());
      for (size_t m = 0; m < expected.commitment_products[k].size(); ++m) {
        EXPECT_TRUE(expected.commitment_products[k][m] == actual.commitment_products[k][m])
            << "product mismatch at prover " << k << " bin " << m;
      }
    }
  }

  // The per-proof oracle's report on the same scenario: ground truth.
  static VerifyReport<G> Oracle(const Pedersen<G>& ped,
                                const std::vector<ClientUploadMsg<G>>& uploads,
                                bool compute_products = true) {
    auto oracle = MakeVerifyBackend<G>(VerifyBackendKind::kPerProof,
                                       ConfigFor(VerifyBackendKind::kPerProof), ped);
    VerifyOptions options;
    options.compute_products = compute_products;
    return oracle->VerifyAll(uploads, options);
  }

  static std::unique_ptr<VerifyBackend<G>> Backend(VerifyBackendKind kind,
                                                   const Pedersen<G>& ped) {
    return MakeVerifyBackend<G>(kind, ConfigFor(kind), ped);
  }

  // --- parameterized conformance bodies ----------------------------------

  // The headline conformance check: full adversarial corpus, one-shot.
  static void AdversarialCorpusMatchesOracle(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    auto expected = Oracle(ped, uploads);
    auto report = Backend(kind, ped)->VerifyAll(uploads);
    EXPECT_EQ(report.backend, VerifyBackendKindName(kind));
    ExpectSameDecisions(expected, report);

    // And against the direct per-upload product, independently of any backend.
    auto direct = DirectProducts(ConfigFor(kind), uploads, expected.accepted);
    for (size_t k = 0; k < direct.size(); ++k) {
      for (size_t m = 0; m < direct[k].size(); ++m) {
        EXPECT_TRUE(report.commitment_products[k][m] == direct[k][m]);
      }
    }
  }

  // Streaming lifecycle (Start / Add / Finish) agrees with the one-shot path,
  // and a finished backend is reusable for a second stream.
  static void StreamingMatchesOneShot(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    auto backend = Backend(kind, ped);
    auto oneshot = backend->VerifyAll(uploads);

    backend->Start(VerifyOptions{});
    for (const auto& upload : uploads) {
      backend->Add(upload);
    }
    auto streamed = backend->Finish();
    EXPECT_EQ(streamed.accepted, oneshot.accepted);
    EXPECT_EQ(streamed.rejections, oneshot.rejections);
    for (size_t k = 0; k < oneshot.commitment_products.size(); ++k) {
      for (size_t m = 0; m < oneshot.commitment_products[k].size(); ++m) {
        EXPECT_TRUE(streamed.commitment_products[k][m] == oneshot.commitment_products[k][m]);
      }
    }

    // Reuse after Finish: a fresh stream starts from global index 0.
    backend->Start(VerifyOptions{});
    backend->Add(uploads[0]);
    auto second = backend->Finish();
    EXPECT_EQ(second.accepted, (std::vector<size_t>{0}));
    EXPECT_EQ(second.total_uploads, 1u);
  }

  // A one-shot VerifyAll behaves exactly like Start: anything buffered from an
  // interrupted stream is discarded, never folded into a phantom report.
  static void VerifyAllDiscardsBufferedStream(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    auto backend = Backend(kind, ped);
    backend->Start(VerifyOptions{});
    backend->Add(uploads[1]);  // abandoned mid-stream
    auto oneshot = backend->VerifyAll(uploads);
    EXPECT_EQ(oneshot.total_uploads, uploads.size());
    auto after = backend->Finish();  // fresh empty stream, not the stale upload
    EXPECT_TRUE(after.accepted.empty());
    EXPECT_EQ(after.total_uploads, 0u);
  }

  // Randomized streaming interleavings: any mix of Add, moved-out Submit, and
  // AddBulk over the adversarial corpus, under randomly small stream windows
  // (where backpressure actually engages) and capacities that land the
  // tampered uploads on different shard boundaries every round, must still be
  // bit-identical to the one-shot verdict. The RNG is seeded per backend, so a
  // failure names a reproducible (capacity, window, interleaving) triple.
  static void RandomizedInterleavingsMatchOneShot(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    auto backend = Backend(kind, ped);
    auto oneshot = backend->VerifyAll(uploads);

    std::mt19937 rng(0x5eed0000u + static_cast<unsigned>(kind) * 97u);
    for (int round = 0; round < 4; ++round) {
      VerifyOptions options;
      options.stream_shard_capacity = 1 + rng() % 7;
      options.stream_max_inflight_shards = 1 + rng() % 3;
      SCOPED_TRACE("round " + std::to_string(round) + " capacity=" +
                   std::to_string(options.stream_shard_capacity) + " window=" +
                   std::to_string(options.stream_max_inflight_shards));
      backend->Start(options);
      size_t i = 0;
      while (i < uploads.size()) {
        const uint32_t pick = rng() % 3;
        if (pick == 0) {
          backend->Add(uploads[i]);
          ++i;
        } else {
          const size_t len = std::min<size_t>(1 + rng() % 5, uploads.size() - i);
          std::vector<ClientUploadMsg<G>> chunk(uploads.begin() + i,
                                                uploads.begin() + i + len);
          if (pick == 1) {
            backend->Submit(std::move(chunk));  // the rvalue fast path
          } else {
            backend->AddBulk(std::move(chunk));
          }
          i += len;
        }
      }
      auto streamed = backend->Finish();
      ExpectSameDecisions(oneshot, streamed);
    }
  }

  static void EmptyUploadSet(VerifyBackendKind kind) {
    Pedersen<G> ped;
    std::vector<ClientUploadMsg<G>> empty;
    auto report = Backend(kind, ped)->VerifyAll(empty);
    EXPECT_TRUE(report.accepted.empty());
    EXPECT_TRUE(report.rejections.empty());
    EXPECT_EQ(report.total_uploads, 0u);
  }

  static void SingleValidClient(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    std::vector<ClientUploadMsg<G>> one = {uploads[0]};
    auto expected = Oracle(ped, one);
    auto report = Backend(kind, ped)->VerifyAll(one);
    ExpectSameDecisions(expected, report);
    EXPECT_EQ(report.accepted, (std::vector<size_t>{0}));
  }

  static void SingleTamperedClient(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    std::vector<ClientUploadMsg<G>> one = {uploads[3]};  // invalid OR proof
    auto expected = Oracle(ped, one);
    auto report = Backend(kind, ped)->VerifyAll(one);
    ExpectSameDecisions(expected, report);
    ASSERT_EQ(report.rejections.size(), 1u);
    EXPECT_EQ(report.rejections[0].code, RejectCode::kProofInvalid);
  }

  static void ProductsSkippedOnRequest(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    VerifyOptions options;
    options.compute_products = false;
    auto report = Backend(kind, ped)->VerifyAll(uploads, options);
    EXPECT_FALSE(report.has_products());
    EXPECT_EQ(report.accepted, Oracle(ped, uploads, /*compute_products=*/false).accepted);
  }

  // Observability conformance: every backend reports exactly the three
  // canonical stage names, in pipeline order, and their timings account for
  // the backend-resident wall time (total_ms). The loose-but-real bounds keep
  // a stage that silently stops being measured (or double-counts) from
  // passing, without making the suite flaky on loaded CI machines.
  static void StagesAreCanonicalAndSumToTotal(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    auto backend = Backend(kind, ped);
    backend->Start(VerifyOptions{});
    for (const auto& upload : uploads) {
      backend->Add(upload);
    }
    auto report = backend->Finish();

    auto stages = report.timings.Stages();
    ASSERT_EQ(stages.size(), 3u);
    EXPECT_EQ(stages[0].first, kStageIngest);
    EXPECT_EQ(stages[1].first, kStageVerify);
    EXPECT_EQ(stages[2].first, kStageCombine);
    double sum = 0;
    for (const auto& [name, ms] : stages) {
      EXPECT_GE(ms, 0.0) << "stage " << name << " went negative";
      sum += ms;
    }
    EXPECT_GT(report.timings.total_ms, 0.0);
    EXPECT_GT(report.timings.verify_ms, 0.0);
    // The named stages may not exceed the wall time (beyond scheduler noise)
    // and must cover most of it -- "assembly overhead" is small by contract.
    EXPECT_LE(sum, report.timings.total_ms * 1.10 + 10.0);
    EXPECT_GE(sum, report.timings.total_ms * 0.5 - 10.0);
  }

  // And the same stage names as trace spans: a traced one-shot run from any
  // backend produces exactly one verify span and one combine span under the
  // caller's trace, so a fleet-wide trace always has the same skeleton no
  // matter which execution strategy ran.
  static void TracedRunEmitsCanonicalStageSpans(VerifyBackendKind kind) {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);
    obs::TraceCollector tracer;
    VerifyOptions options;
    options.tracer = &tracer;
    options.trace_parent = tracer.RootContext();
    auto report = Backend(kind, ped)->VerifyAll(uploads, options);
    EXPECT_EQ(report.accepted, Oracle(ped, uploads).accepted);

    auto spans = tracer.TakeSpans();
    ASSERT_FALSE(spans.empty());
    size_t verify_spans = 0;
    size_t combine_spans = 0;
    for (const auto& span : spans) {
      EXPECT_EQ(span.trace_id, tracer.trace_id())
          << "span " << span.name << " landed outside the caller's trace";
      EXPECT_NE(span.span_id, 0u);
      if (span.name == kStageVerify) {
        ++verify_spans;
      }
      if (span.name == kStageCombine) {
        ++combine_spans;
      }
    }
    EXPECT_EQ(verify_spans, 1u);
    EXPECT_EQ(combine_spans, 1u);
  }

  // --- cross-backend (not parameterized) ----------------------------------

  // The rejection-reason regression: the typed RejectionReasons -- code,
  // detail, AND rendered legacy string -- must be identical from every
  // backend, pinned against literal expectations so a drift in any one path
  // fails loudly.
  static void AllBackendsRenderIdenticalReasons() {
    Pedersen<G> ped;
    auto uploads = Corpus(ped);

    std::vector<VerifyReport<G>> reports;
    for (VerifyBackendKind kind : AllVerifyBackendKinds()) {
      reports.push_back(MakeVerifyBackend<G>(kind, ConfigFor(kind), ped)->VerifyAll(uploads));
    }
    for (size_t i = 1; i < reports.size(); ++i) {
      EXPECT_EQ(reports[0].rejections, reports[i].rejections)
          << "backend " << reports[i].backend << " diverged from " << reports[0].backend;
      EXPECT_EQ(reports[0].RenderedReasons(), reports[i].RenderedReasons());
    }

    // Pin the canonical renderings (the legacy "client <i>: <why>" format).
    ASSERT_EQ(reports[0].rejections.size(), 4u);
    const auto rendered = reports[0].RenderedReasons();
    EXPECT_EQ(rendered[0], "client 3: bin OR proof invalid");
    EXPECT_EQ(rendered[1], "client 9: malformed upload shape");
    EXPECT_EQ(rendered[2], "client 14: bin OR proof invalid");
    EXPECT_EQ(rendered[3], "client 19: bins do not sum to one");
    EXPECT_EQ(reports[0].rejections[0].code, RejectCode::kProofInvalid);
    EXPECT_EQ(reports[0].rejections[1].code, RejectCode::kMalformedUpload);
    EXPECT_EQ(reports[0].rejections[2].code, RejectCode::kProofInvalid);
    EXPECT_EQ(reports[0].rejections[3].code, RejectCode::kNotOneHot);

    // PublicVerifier's legacy reasons output is the same rendering.
    PublicVerifier<G> verifier(ConfigFor(VerifyBackendKind::kPerProof), ped);
    std::vector<std::string> legacy;
    verifier.ValidateClients(uploads, &legacy);
    EXPECT_EQ(legacy, rendered);
  }

  // --- remote-specific fleet-failure conformance ---------------------------
  //
  // The remote backend's extra failure surface -- the network -- must never
  // reach the verdict. Each case runs the full adversarial corpus against a
  // dedicated misbehaving loopback fleet and asserts bit-identity with the
  // per-proof oracle; trouble may only show up in the fleet report.

  // Low timeouts so the hung-server case converges quickly.
  static RemoteFleetOptions FastOptions() {
    RemoteFleetOptions options;
    options.connect_timeout_ms = 2'000;
    options.handshake_timeout_ms = 2'000;
    options.shard_timeout_ms = 5'000;
    options.reconnect_backoff_ms = 10;
    return options;
  }

  static RemoteFleetReport ExpectCorpusMatchesOracle(const net::LoopbackFleet& fleet,
                                                     RemoteFleetOptions options) {
    Pedersen<G> ped;
    ProtocolConfig config = ConfigFor(VerifyBackendKind::kPerProof);
    config.num_verify_shards = 5;
    fleet.ApplyTo(&config);
    auto uploads = Corpus(ped);

    VerifyReport<G> expected = Oracle(ped, uploads);
    RemoteBackend<G> backend(config, ped, options);
    VerifyReport<G> report = backend.VerifyAll(uploads);
    ExpectSameDecisions(expected, report);
    RemoteFleetReport fleet_report = backend.last_fleet_report();
    EXPECT_EQ(fleet_report.shards_from_remote + fleet_report.shards_recovered_in_process,
              fleet_report.shards_total);
    return fleet_report;
  }

  static void ConnectionDroppedMidShard() {
    net::LoopbackFleet fleet(2, /*fault=*/"close:0");
    ASSERT_FALSE(fleet.servers().empty());
    auto fleet_report = ExpectCorpusMatchesOracle(fleet, FastOptions());
    EXPECT_FALSE(fleet_report.failures.empty());
  }

  static void HungServer() {
    net::LoopbackFleet fleet(2, /*fault=*/"hang:0");
    ASSERT_FALSE(fleet.servers().empty());
    RemoteFleetOptions options = FastOptions();
    options.shard_timeout_ms = 300;
    options.max_attempts_per_shard = 1;
    auto fleet_report = ExpectCorpusMatchesOracle(fleet, options);
    EXPECT_FALSE(fleet_report.failures.empty());
  }

  static void ResultForWrongShardRange() {
    net::LoopbackFleet fleet(2, /*fault=*/"wrongshard:0");
    ASSERT_FALSE(fleet.servers().empty());
    auto fleet_report = ExpectCorpusMatchesOracle(fleet, FastOptions());
    bool saw_mismatch = false;
    for (const RemoteFailure& f : fleet_report.failures) {
      if (f.reason.find("does not match task") != std::string::npos) {
        saw_mismatch = true;
      }
    }
    EXPECT_TRUE(saw_mismatch);
  }

  static void RecoveryAfterKilledServer() {
    net::LoopbackFleet fleet(2);
    ASSERT_EQ(fleet.servers().size(), 2u);
    kill((*fleet.mutable_servers())[0].pid, SIGKILL);
    RemoteFleetOptions options = FastOptions();
    options.connect_timeout_ms = 1'000;
    auto fleet_report = ExpectCorpusMatchesOracle(fleet, options);
    EXPECT_GE(fleet_report.shards_from_remote, 1u);  // the survivor worked
  }
};

class BackendConformanceTest : public ::testing::TestWithParam<VerifyBackendKind> {};

#define VDP_CONFORMANCE_TEST_P(Body)                                 \
  TEST_P(BackendConformanceTest, Body) {                             \
    RunForGroup([&](auto tag) {                                      \
      Suite<typename decltype(tag)::Group>::Body(GetParam());        \
    });                                                              \
  }

VDP_CONFORMANCE_TEST_P(AdversarialCorpusMatchesOracle)
VDP_CONFORMANCE_TEST_P(StreamingMatchesOneShot)
VDP_CONFORMANCE_TEST_P(VerifyAllDiscardsBufferedStream)
VDP_CONFORMANCE_TEST_P(RandomizedInterleavingsMatchOneShot)
VDP_CONFORMANCE_TEST_P(EmptyUploadSet)
VDP_CONFORMANCE_TEST_P(SingleValidClient)
VDP_CONFORMANCE_TEST_P(SingleTamperedClient)
VDP_CONFORMANCE_TEST_P(ProductsSkippedOnRequest)
VDP_CONFORMANCE_TEST_P(StagesAreCanonicalAndSumToTotal)
VDP_CONFORMANCE_TEST_P(TracedRunEmitsCanonicalStageSpans)

#undef VDP_CONFORMANCE_TEST_P

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformanceTest,
                         ::testing::ValuesIn(AllVerifyBackendKinds()),
                         [](const ::testing::TestParamInfo<VerifyBackendKind>& info) {
                           std::string name = VerifyBackendKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(BackendRejectionRegressionTest, AllBackendsRenderIdenticalReasons) {
  RunForGroup([&](auto tag) {
    Suite<typename decltype(tag)::Group>::AllBackendsRenderIdenticalReasons();
  });
}

TEST(RemoteFailureConformanceTest, ConnectionDroppedMidShard) {
  RunForGroup([&](auto tag) {
    Suite<typename decltype(tag)::Group>::ConnectionDroppedMidShard();
  });
}

TEST(RemoteFailureConformanceTest, HungServer) {
  RunForGroup([&](auto tag) { Suite<typename decltype(tag)::Group>::HungServer(); });
}

TEST(RemoteFailureConformanceTest, ResultForWrongShardRange) {
  RunForGroup([&](auto tag) {
    Suite<typename decltype(tag)::Group>::ResultForWrongShardRange();
  });
}

TEST(RemoteFailureConformanceTest, RecoveryAfterKilledServer) {
  RunForGroup([&](auto tag) {
    Suite<typename decltype(tag)::Group>::RecoveryAfterKilledServer();
  });
}

// Factory policy: group-independent, pinned on the default group. Three
// strategies: the per-proof oracle, the in-process sharded pipeline (which a
// lone batch_verify runs as one whole-stream shard), and the server fleet
// (which verify_workers spawns locally).
TEST(BackendFactoryTest, SelectionPolicyMatchesFlags) {
  EXPECT_EQ(AllVerifyBackendKinds().size(), 3u);
  ProtocolConfig config;
  EXPECT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kPerProof);
  config.batch_verify = true;
  EXPECT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kSharded);
  config.num_verify_shards = 4;
  EXPECT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kSharded);
  config.verify_workers = 3;
  EXPECT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kRemote);

  // Sharding alone selects sharded; workers win over both; a provisioned
  // remote fleet wins over everything.
  ProtocolConfig sharded_only;
  sharded_only.num_verify_shards = 2;
  EXPECT_EQ(SelectVerifyBackend(sharded_only), VerifyBackendKind::kSharded);
  ProtocolConfig workers_only;
  workers_only.verify_workers = 2;
  EXPECT_EQ(SelectVerifyBackend(workers_only), VerifyBackendKind::kRemote);
  config.verify_workers = 0;
  config.remote_verifiers = {"tcp:127.0.0.1:7000"};
  config.remote_auth_key_hex = std::string(32, 'a');
  EXPECT_EQ(SelectVerifyBackend(config), VerifyBackendKind::kRemote);
}

TEST(BackendFactoryTest, NamesRoundTripThroughRegistry) {
  for (VerifyBackendKind kind : AllVerifyBackendKinds()) {
    auto parsed = VerifyBackendKindFromName(VerifyBackendKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(VerifyBackendKindFromName("carrier-pigeon").has_value());
}

TEST(BackendFactoryTest, RejectsInvalidConfig) {
  Pedersen<ModP256> ped;
  ProtocolConfig config;
  config.verify_workers = 1;  // ambiguous: Validate() rejects it
  EXPECT_THROW(MakeVerifyBackend<ModP256>(config, ped), std::invalid_argument);

  ProtocolConfig keyless;
  keyless.remote_verifiers = {"tcp:127.0.0.1:7000"};  // fleet without a secret
  EXPECT_THROW(MakeVerifyBackend<ModP256>(keyless, ped), std::invalid_argument);
}

}  // namespace
}  // namespace vdp
