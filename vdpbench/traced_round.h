// The traced round: one Pi_Bin round driven step by step through the same
// public calls RunProtocol (src/core/protocol.h) makes, in the same order,
// with an obs::TraceSpan around each call. The benchmark checks that it
// reaches the same verdict, accepted set and raw histogram as RunProtocol at
// the same seed, so its spans describe the round the untraced pass times.
//
// Span tree (names are Figure 2 line numbers):
//
//   round
//     line3.validate      PublicVerifier::ValidateClientsReport's backend call
//       ...               backend spans (ingest / shard / dispatch / server)
//     line3.share_check   ClientShareConsistent over the accepted set
//     line2.load_shares   Prover::LoadClientShares
//     line4.commit        Prover::CommitCoins                   (per prover)
//     line5-6.coin_proofs PublicVerifier::CheckCoinProofs       (per prover)
//     line7-8.morra       RunProverMorra                        (per prover)
//     line9-11.output     ReceivePublicCoins + ComputeOutput    (per prover)
//     line12-13.final     CheckFinalWithProducts / CheckFinal   (per prover)
//     publish             debias and release the histogram
#ifndef VDPBENCH_TRACED_ROUND_H_
#define VDPBENCH_TRACED_ROUND_H_

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "host_probe.h"
#include "src/core/audit.h"
#include "src/core/protocol.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace vdpbench {

template <vdp::PrimeOrderGroup G>
struct TracedRound {
  vdp::ProtocolResult result;
  vdp::VerifyReport<G> report;  // line-3 report: rejections, shard counts
  vdp::PublicTranscript<G> transcript;
  vdp::obs::MetricsSnapshot validate_metrics;  // global registry, validate call only
  double validate_cpu_s = 0;
  double commit_cpu_s = 0;
  uint64_t morra_coins = 0;
};

// Mirrors RunProtocol line for line; see the header comment. The global
// metrics registry is reset right before the validate call and snapshotted
// right after it, so validate_metrics holds that call's counts alone.
template <vdp::PrimeOrderGroup G>
TracedRound<G> RunTracedRound(const vdp::ProtocolConfig& config, const vdp::Pedersen<G>& ped,
                              const std::vector<vdp::ClientBundle<G>>& clients,
                              const std::vector<vdp::Prover<G>*>& provers,
                              vdp::SecureRng& verifier_rng, vdp::ThreadPool* pool,
                              vdp::obs::TraceCollector* tracer) {
  using vdp::obs::TraceSpan;
  TracedRound<G> out;
  vdp::ProtocolResult& result = out.result;
  TraceSpan round(tracer, "round", tracer->RootContext());
  const vdp::obs::TraceContext ctx = round.context();

  vdp::PublicVerifier<G> verifier(config, ped);

  std::vector<vdp::ClientUploadMsg<G>> uploads;
  uploads.reserve(clients.size());
  for (const auto& c : clients) {
    uploads.push_back(c.upload);
  }
  out.transcript.client_uploads = uploads;

  {
    TraceSpan span(tracer, "line3.validate", ctx);
    vdp::VerifyOptions options;
    options.compute_products = true;
    options.pool = pool;
    options.tracer = tracer;
    options.trace_parent = span.context();
    vdp::obs::MetricsRegistry::Global().ResetAll();
    const double cpu0 = ProcessCpuSeconds();
    out.report = vdp::MakeVerifyBackend<G>(config, ped)->VerifyAll(uploads, options);
    out.validate_cpu_s = ProcessCpuSeconds() - cpu0;
    out.validate_metrics = vdp::obs::MetricsRegistry::Global().Snapshot();
  }
  const vdp::VerifyReport<G>& report = out.report;

  std::vector<size_t> consistent;
  {
    TraceSpan span(tracer, "line3.share_check", ctx);
    for (size_t idx : report.accepted) {
      bool ok = true;
      for (const auto* prover : provers) {
        const auto& share = clients[idx].shares[prover->index()];
        if (!vdp::ClientShareConsistent(share, uploads[idx].commitments[prover->index()],
                                        ped)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        consistent.push_back(idx);
      }
    }
  }
  result.accepted_clients = consistent;

  {
    TraceSpan span(tracer, "line2.load_shares", ctx);
    for (vdp::Prover<G>* prover : provers) {
      std::vector<vdp::ClientShareMsg<G>> shares;
      shares.reserve(consistent.size());
      for (size_t idx : consistent) {
        shares.push_back(clients[idx].shares[prover->index()]);
      }
      prover->LoadClientShares(shares);
    }
  }

  const size_t bins = config.num_bins;
  using S = typename G::Scalar;
  std::vector<S> totals(bins, S::Zero());

  for (vdp::Prover<G>* prover : provers) {
    const std::string who = "prover=" + std::to_string(prover->index());
    vdp::ProverCoinsMsg<G> coins;
    {
      TraceSpan span(tracer, "line4.commit", ctx);
      span.set_detail(who);
      const double cpu0 = ProcessCpuSeconds();
      coins = prover->CommitCoins(pool);
      out.commit_cpu_s += ProcessCpuSeconds() - cpu0;
    }
    bool proofs_ok = false;
    {
      TraceSpan span(tracer, "line5-6.coin_proofs", ctx);
      span.set_detail(who);
      proofs_ok = verifier.CheckCoinProofs(prover->index(), coins, pool);
    }
    if (!proofs_ok) {
      result.verdict = vdp::Verdict::Reject(vdp::VerdictCode::kCoinProofInvalid,
                                            prover->index(),
                                            "private coin commitment failed O_OR");
      return out;
    }
    std::vector<std::vector<bool>> bits;
    {
      TraceSpan span(tracer, "line7-8.morra", ctx);
      span.set_detail(who);
      bits = vdp::RunProverMorra(*prover, ped, config, verifier_rng);
    }
    if (bits.empty()) {
      result.verdict = vdp::Verdict::Reject(vdp::VerdictCode::kMorraAborted, prover->index(),
                                            "public coin generation aborted");
      return out;
    }
    for (const auto& row : bits) {
      out.morra_coins += row.size();
    }
    vdp::ProverOutputMsg<G> output;
    {
      TraceSpan span(tracer, "line9-11.output", ctx);
      span.set_detail(who);
      prover->ReceivePublicCoins(bits);
      output = prover->ComputeOutput();
    }
    if (output.y.size() != bins || output.z.size() != bins) {
      result.verdict = vdp::Verdict::Reject(vdp::VerdictCode::kMalformedMessage,
                                            prover->index(), "output shape mismatch");
      return out;
    }
    out.transcript.prover_coins.push_back(coins);
    out.transcript.public_bits.push_back(bits);
    out.transcript.prover_outputs.push_back(output);
    bool final_ok = false;
    {
      TraceSpan span(tracer, "line12-13.final", ctx);
      span.set_detail(who);
      final_ok = (report.has_products() && consistent.size() == report.accepted.size())
                     ? verifier.CheckFinalWithProducts(
                           report.commitment_products[prover->index()], coins, bits, output)
                     : verifier.CheckFinal(prover->index(), uploads, consistent, coins, bits,
                                           output);
    }
    if (!final_ok) {
      result.verdict = vdp::Verdict::Reject(vdp::VerdictCode::kFinalCheckFailed,
                                            prover->index(),
                                            "commitment product does not open to (y_k, z_k)");
      return out;
    }
    for (size_t bin = 0; bin < bins; ++bin) {
      totals[bin] += output.y[bin];
    }
  }

  TraceSpan publish(tracer, "publish", ctx);
  result.raw_histogram.resize(bins);
  result.histogram.resize(bins);
  for (size_t bin = 0; bin < bins; ++bin) {
    auto as_u64 = totals[bin].ToU64();
    if (!as_u64.has_value()) {
      result.verdict = vdp::Verdict::Reject(vdp::VerdictCode::kMalformedMessage, vdp::kNoParty,
                                            "aggregate output out of range");
      return out;
    }
    result.raw_histogram[bin] = *as_u64;
    result.histogram[bin] = static_cast<double>(*as_u64) - config.ExpectedOffset();
  }
  result.verdict = vdp::Verdict::Accept();
  return out;
}

// A bystander's audit of published bytes, with a span per step:
//   audit -> audit.encode (SerializeTranscript, the publisher's side)
//         -> audit.decode (DeserializeTranscript)
//         -> audit.check  (AuditTranscript)
template <vdp::PrimeOrderGroup G>
struct TracedAudit {
  vdp::AuditReport report;
  bool decoded = false;
  size_t transcript_bytes = 0;
};

template <vdp::PrimeOrderGroup G>
TracedAudit<G> RunTracedAudit(const vdp::PublicTranscript<G>& transcript,
                              const vdp::ProtocolConfig& auditor_config,
                              const vdp::Pedersen<G>& ped, vdp::ThreadPool* pool,
                              vdp::obs::TraceCollector* tracer) {
  using vdp::obs::TraceSpan;
  TracedAudit<G> out;
  TraceSpan audit(tracer, "audit", tracer->RootContext());
  vdp::Bytes bytes;
  {
    TraceSpan span(tracer, "audit.encode", audit.context());
    bytes = vdp::SerializeTranscript(transcript);
  }
  out.transcript_bytes = bytes.size();
  std::optional<vdp::PublicTranscript<G>> decoded;
  {
    TraceSpan span(tracer, "audit.decode", audit.context());
    decoded = vdp::DeserializeTranscript<G>(bytes);
  }
  if (!decoded.has_value()) {
    return out;
  }
  out.decoded = true;
  TraceSpan span(tracer, "audit.check", audit.context());
  out.report = vdp::AuditTranscript(*decoded, auditor_config, ped, pool);
  return out;
}

// Wall and self time of the spans under one root, in seconds. A span's self
// time is its duration minus the part of its interval that its children
// cover (children may overlap, e.g. parallel shards), so a parent's self
// time never goes negative.
struct LayerTimes {
  std::map<std::string, double> total_s;  // summed durations, by span name
  std::map<std::string, double> self_s;   // summed self times, by span name
  double root_s = 0;
  double root_self_s = 0;  // root time no direct child covers: driver self time
};

inline LayerTimes AnalyzeSpans(const std::vector<vdp::obs::SpanRecord>& spans,
                               const std::string& root_name) {
  LayerTimes out;
  std::map<uint64_t, std::vector<const vdp::obs::SpanRecord*>> children;
  const vdp::obs::SpanRecord* root = nullptr;
  for (const auto& s : spans) {
    if (s.name == root_name && s.parent_span_id == 0) {
      root = &s;
    }
    children[s.parent_span_id].push_back(&s);
  }
  if (root == nullptr) {
    return out;
  }
  auto covered_us = [&](const vdp::obs::SpanRecord& parent) {
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (const auto* c : children[parent.span_id]) {
      const uint64_t lo = std::max(c->start_us, parent.start_us);
      const uint64_t hi =
          std::min(c->start_us + c->duration_us, parent.start_us + parent.duration_us);
      if (hi > lo) {
        iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t total = 0;
    uint64_t end = 0;
    for (const auto& [lo, hi] : iv) {
      const uint64_t from = std::max(lo, end);
      if (hi > from) {
        total += hi - from;
      }
      end = std::max(end, hi);
    }
    return total;
  };
  std::vector<const vdp::obs::SpanRecord*> stack = {root};
  while (!stack.empty()) {
    const vdp::obs::SpanRecord* s = stack.back();
    stack.pop_back();
    const double self = static_cast<double>(s->duration_us - covered_us(*s)) * 1e-6;
    if (s == root) {
      out.root_s = static_cast<double>(s->duration_us) * 1e-6;
      out.root_self_s = self;
    } else {
      out.total_s[s->name] += static_cast<double>(s->duration_us) * 1e-6;
      out.self_s[s->name] += self;
    }
    for (const auto* c : children[s->span_id]) {
      stack.push_back(c);
    }
  }
  return out;
}

}  // namespace vdpbench

#endif  // VDPBENCH_TRACED_ROUND_H_
