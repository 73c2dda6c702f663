// The shard compute core: verify one contiguous shard of the upload stream
// and deterministically combine per-shard outcomes into a VerifyReport.
//
// Every execution layer -- the in-process executor (shard_executor.h),
// the remote socket fleet (src/net/remote_fleet.h),
// and the verify_server daemons themselves -- shares one implementation of
// the batched validation algorithm and one combiner. Guarantees:
//
//   - Equivalence: the merged accepted set, rejection reasons, and the
//     per-prover/per-bin products of accepted commitments are bit-identical
//     to what the monolithic PublicVerifier::ValidateClients path computes
//     (per-client decisions are independent and deterministic; sharding only
//     changes which random-linear combination covers which proofs, and a
//     failed batch is resolved to per-proof verdicts).
//   - Confined blame attribution: a corrupted upload makes only its own
//     shard's batch check fail, and only that shard searches for it.
//     A split failure (e0 + e1 != e) is blamed on its proof directly; the
//     rest are found by bisecting the shard's RLC error (OrBatch::Blame,
//     src/batch/batch_or_proof.h): each failing half-set costs one MSM over
//     half its proofs, so one cheater among n proofs costs about one more
//     RLC instead of n per-proof checks. A density cutoff sends failing sets
//     the search cannot afford to per-proof OrVerify, so even a shard of
//     nothing but forgeries costs at most the per-proof re-scan plus one RLC.
#ifndef SRC_SHARD_SHARD_RESULT_H_
#define SRC_SHARD_SHARD_RESULT_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/batch/batch_or_proof.h"
#include "src/common/timer.h"
#include "src/core/client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/verify/report.h"

namespace vdp {

// Outcome of verifying one contiguous shard of the upload stream. Everything
// downstream (combiner, Eq. 10 check) needs survives here; the uploads
// themselves can be released once this is produced.
template <PrimeOrderGroup G>
struct ShardResult {
  size_t shard_index = 0;
  size_t base = 0;   // global index of the shard's first upload
  size_t count = 0;  // uploads in the shard
  // Global indices of accepted uploads, ascending.
  std::vector<size_t> accepted;
  // (global index, reason) for every rejected upload, ascending by index.
  std::vector<std::pair<size_t, std::string>> rejections;
  // partial_products[k][m] = prod over accepted uploads of commitments[k][m]
  // -- this shard's contribution to the Eq. 10 left-hand side.
  std::vector<std::vector<typename G::Element>> partial_products;
  // True iff this shard's batch check failed (a split or the RLC) and the
  // shard searched for the invalid proofs to attribute blame.
  bool fallback_used = false;
};

// Reduces per-upload verdicts (ok / why, with global index base + i) to a
// compact ShardResult: accepted indices, rejections, and optionally the
// per-(prover, bin) partial products of accepted commitments. The single
// implementation of result assembly -- VerifyShard and VerifyShardPerProof
// both build their results here, so the bit-identity contract between
// backends cannot be broken by one copy drifting. Consumes `why` (details
// are moved out).
template <PrimeOrderGroup G>
ShardResult<G> BuildShardResult(const ProtocolConfig& config,
                                const ClientUploadMsg<G>* uploads, size_t count, size_t base,
                                size_t shard_index, const std::vector<uint8_t>& ok,
                                std::vector<std::string>& why, bool compute_products,
                                bool fallback_used = false) {
  using Element = typename G::Element;
  ShardResult<G> result;
  result.shard_index = shard_index;
  result.base = base;
  result.count = count;
  result.fallback_used = fallback_used;
  if (compute_products) {
    result.partial_products.assign(config.num_provers,
                                   std::vector<Element>(config.num_bins, G::Identity()));
  }
  for (size_t i = 0; i < count; ++i) {
    if (ok[i] == 0) {
      result.rejections.emplace_back(base + i, std::move(why[i]));
      continue;
    }
    result.accepted.push_back(base + i);
    if (!compute_products) {
      continue;
    }
    for (size_t k = 0; k < config.num_provers; ++k) {
      for (size_t m = 0; m < config.num_bins; ++m) {
        result.partial_products[k][m] =
            G::Mul(result.partial_products[k][m], uploads[i].commitments[k][m]);
      }
    }
  }
  return result;
}

// Verifies uploads[0..count) as one shard whose first element has global
// index `base`. Structural checks and the per-proof split checks fan across
// `pool`; the RLC batch check and the blame search shard their MSMs onto
// `pool` too. Pass pool == nullptr when calling from inside a pool task
// (ParallelFor does not nest). This is the single implementation of the batched validation
// algorithm: a batch_verify-only config runs it as one whole-stream shard,
// and every sharded or fleet path runs it per shard, so they cannot drift
// apart.
template <PrimeOrderGroup G>
ShardResult<G> VerifyShard(const ProtocolConfig& config, const Pedersen<G>& ped,
                           const ClientUploadMsg<G>* uploads, size_t count, size_t base,
                           size_t shard_index, ThreadPool* pool = nullptr,
                           bool compute_products = true,
                           obs::TraceCollector* tracer = nullptr,
                           obs::TraceContext trace_parent = {}) {
  using Element = typename G::Element;
  Stopwatch shard_timer;
  obs::TraceSpan shard_span(tracer, "shard", trace_parent);
  shard_span.set_detail("shard=" + std::to_string(shard_index) +
                        " n=" + std::to_string(count));
  std::vector<uint8_t> ok(count, 0);
  std::vector<std::string> why(count);
  std::vector<std::vector<Element>> aggregated(count);

  // Structural pass: shape, per-bin aggregated commitments, one-hot opening.
  obs::TraceSpan structure_span(tracer, "structure", shard_span.context());
  auto structure = [&](size_t i) {
    auto agg = ClientUploadStructure(uploads[i], config, ped, &why[i]);
    if (agg.has_value()) {
      aggregated[i] = std::move(*agg);
      ok[i] = 1;
    }
  };
  ForEachIndex(pool, count, structure);
  structure_span.End();

  // One RLC check over every bin proof of every structurally valid upload in
  // this shard. Contexts carry the *global* client index, so the challenge
  // schedule is identical to the monolithic verifier's.
  std::vector<OrInstance<G>> instances;
  std::vector<size_t> owner;  // instances[j] is a bin proof of uploads[owner[j]]
  for (size_t i = 0; i < count; ++i) {
    if (ok[i] == 0) {
      continue;
    }
    for (size_t bin = 0; bin < aggregated[i].size(); ++bin) {
      instances.push_back({aggregated[i][bin], uploads[i].bin_proofs[bin],
                           ClientProofContext(config.session_id, base + i, bin)});
      owner.push_back(i);
    }
  }
  obs::TraceSpan rlc_span(tracer, "rlc", shard_span.context());
  OrBatch<G> batch(ped, instances, pool);
  const bool batch_ok = batch.RootPasses(pool) && batch.split_failures() == 0;
  rlc_span.End();
  if (!batch_ok) {
    // Someone in *this shard* cheated: find them in the error tree. Every
    // per-upload verdict is the per-proof oracle's, because each proof's
    // verdict is independent of every other proof.
    obs::TraceSpan bisect_span(tracer, "bisect", shard_span.context());
    const std::vector<uint8_t> valid = batch.Blame(pool);
    for (size_t j = 0; j < instances.size(); ++j) {
      if (valid[j] == 0) {
        why[owner[j]] = kDetailProofInvalid;
        ok[owner[j]] = 0;
      }
    }
  }

  const double shard_us = shard_timer.ElapsedMicros();
  obs::GlobalHistogram(obs::kVerifyShardMs)->Record(shard_us / 1000.0);
  if (count > 0) {
    obs::GlobalHistogram(obs::kVerifyUsPerProof)->Record(shard_us / static_cast<double>(count));
  }
  return BuildShardResult(config, uploads, count, base, shard_index, ok, why,
                          compute_products, !batch_ok);
}

// The per-proof oracle over one shard: every upload checked on its own by
// ValidateClientUpload (src/core/client.h), uploads fanned across `pool`.
// No RLC, no blame search, no sub-spans. This is the ground truth the
// batched path must reach: its blame search ends in this same OrVerify.
template <PrimeOrderGroup G>
ShardResult<G> VerifyShardPerProof(const ProtocolConfig& config, const Pedersen<G>& ped,
                                   const ClientUploadMsg<G>* uploads, size_t count,
                                   size_t base, size_t shard_index, ThreadPool* pool,
                                   bool compute_products) {
  std::vector<uint8_t> ok(count, 0);
  std::vector<std::string> why(count);
  ForEachIndex(pool, count, [&](size_t i) {
    ok[i] = ValidateClientUpload(uploads[i], base + i, config, ped, &why[i]) ? 1 : 0;
  });
  return BuildShardResult(config, uploads, count, base, shard_index, ok, why,
                          compute_products);
}

// Deterministic combiner: merges shard results (which must cover contiguous,
// ascending ranges) into the global VerifyReport. Pure data-plane: no group
// or hash operations beyond one Mul per shard per (prover, bin). When
// compute_products is false the report carries no products (has_products()
// is false) so downstream consumers recompute Eq. 10 from the uploads.
template <PrimeOrderGroup G>
VerifyReport<G> CombineShardResults(const ProtocolConfig& config,
                                    std::vector<ShardResult<G>> results,
                                    bool compute_products = true) {
  using Element = typename G::Element;
  Stopwatch timer;
  std::sort(results.begin(), results.end(),
            [](const ShardResult<G>& a, const ShardResult<G>& b) {
              return a.shard_index < b.shard_index;
            });
  VerifyReport<G> report;
  report.num_shards = results.size();
  if (compute_products) {
    report.commitment_products.assign(config.num_provers,
                                      std::vector<Element>(config.num_bins, G::Identity()));
  }
  for (const ShardResult<G>& r : results) {
    report.total_uploads += r.count;
    if (r.fallback_used) {
      ++report.shards_with_fallback;
    }
    report.accepted.insert(report.accepted.end(), r.accepted.begin(), r.accepted.end());
    for (const auto& [index, why] : r.rejections) {
      report.rejections.push_back(RejectionReason{index, ClassifyRejectDetail(why), why});
    }
    if (!compute_products || r.partial_products.empty()) {
      continue;  // nothing to fold in
    }
    for (size_t k = 0; k < config.num_provers; ++k) {
      for (size_t m = 0; m < config.num_bins; ++m) {
        report.commitment_products[k][m] =
            G::Mul(report.commitment_products[k][m], r.partial_products[k][m]);
      }
    }
  }
  report.timings.combine_ms = timer.ElapsedMillis();
  return report;
}

}  // namespace vdp

#endif  // SRC_SHARD_SHARD_RESULT_H_
