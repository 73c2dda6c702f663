// The structured result of client-upload verification: one report type,
// produced identically by every VerifyBackend (src/verify/backend.h).
//
// The paper's public verifier is a single logical object -- anyone can rerun
// Line 3 of Figure 2 from the broadcast transcript -- so no matter which
// execution strategy performed the checks (per-proof, RLC-batched shards in
// process, or a verify_server fleet), the *outcome* must be expressible
// in one shape: which uploads were accepted, why each rejected upload was
// rejected (typed, not a formatted string), and the per-prover/per-bin
// products of accepted commitments that feed the Eq. 10 final check.
#ifndef SRC_VERIFY_REPORT_H_
#define SRC_VERIFY_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/group/group.h"

namespace vdp {

// Why one client upload was rejected during Line-3 validation. These mirror
// the failure points of ClientUploadStructure / OrVerify (src/core/client.h);
// every backend classifies identically because they all reject through the
// same two functions.
enum class RejectCode : uint8_t {
  kMalformedUpload,  // wrong shape: commitment matrix or proof vector sizes
  kNotOneHot,        // bin commitments do not open to exactly one (M > 1)
  kProofInvalid,     // a bin's Sigma-OR proof failed verification
  kUnspecified,      // reject reason did not match a known detail string
};

inline const char* RejectCodeName(RejectCode code) {
  switch (code) {
    case RejectCode::kMalformedUpload:
      return "malformed-upload";
    case RejectCode::kNotOneHot:
      return "not-one-hot";
    case RejectCode::kProofInvalid:
      return "proof-invalid";
    case RejectCode::kUnspecified:
      return "unspecified";
  }
  return "unknown";
}

// The canonical detail strings of the validation layer. Producers
// (src/core/client.h, the blame search in src/shard/) and the
// classifier below share these constants, so a reworded rejection cannot
// silently decouple the typed code from the string.
inline constexpr const char* kDetailMalformedUpload = "malformed upload shape";
inline constexpr const char* kDetailNotOneHot = "bins do not sum to one";
inline constexpr const char* kDetailProofInvalid = "bin OR proof invalid";

// Maps the canonical detail strings of the validation layer to typed codes.
// Centralized so a detail string produced by any backend -- including one
// decoded from a server's wire ShardResult -- classifies the same way.
inline RejectCode ClassifyRejectDetail(std::string_view detail) {
  if (detail == kDetailMalformedUpload) {
    return RejectCode::kMalformedUpload;
  }
  if (detail == kDetailNotOneHot) {
    return RejectCode::kNotOneHot;
  }
  if (detail == kDetailProofInvalid) {
    return RejectCode::kProofInvalid;
  }
  return RejectCode::kUnspecified;
}

// One rejected upload: global index, typed code, human-readable detail.
struct RejectionReason {
  size_t index = 0;
  RejectCode code = RejectCode::kUnspecified;
  std::string detail;

  // The canonical rendering, identical from every backend (and identical to
  // the strings the pre-VerifyBackend monolithic path produced).
  std::string Render() const {
    return "client " + std::to_string(index) + ": " + detail;
  }

  friend bool operator==(const RejectionReason& a, const RejectionReason& b) {
    return a.index == b.index && a.code == b.code && a.detail == b.detail;
  }
};

// The canonical stage names every backend reports, in pipeline order. The
// conformance suite asserts every backend emits exactly these three, and
// the run-log (src/obs/runlog.h) trends them per backend across PRs, so a
// renamed stage is a schema change.
inline constexpr const char* kStageIngest = "ingest";
inline constexpr const char* kStageVerify = "verify";
inline constexpr const char* kStageCombine = "combine";

// Wall-clock cost of the pipeline stages every backend has: ingesting the
// stream (Add/AddBulk buffering), verifying uploads (structural checks +
// proof checks, however parallelized -- for the remote backend this is the
// whole fleet drive, wire cost included), and
// combining per-shard results into the global report. total_ms is the
// backend-resident wall time (time spent inside Start/Add/Finish or
// VerifyAll), so the named stages must sum to it within the small assembly
// overhead -- the conformance suite pins that. Timing *values* are
// informational and never compared across backends.
struct VerifyTimings {
  double ingest_ms = 0;
  double verify_ms = 0;
  double combine_ms = 0;
  double total_ms = 0;

  // The named stages, in pipeline order -- the one list the run-log emitter
  // and the conformance suite both consume.
  std::vector<std::pair<std::string, double>> Stages() const {
    return {{kStageIngest, ingest_ms}, {kStageVerify, verify_ms},
            {kStageCombine, combine_ms}};
  }
};

// A point-in-time snapshot of a verification stream in flight, for callers
// that want to watch a long ingest (progress bars, soak harnesses, the
// run-log). All counters are monotone within one stream except
// inflight_shards/buffered_uploads, which rise and fall with the
// backpressure window. Every counter reads zero outside a stream.
struct VerifyProgress {
  size_t uploads_ingested = 0;   // uploads Added so far
  size_t shards_cut = 0;         // contiguous shards sealed from the stream
  size_t shards_done = 0;        // shards reduced to a compact ShardResult
  size_t inflight_shards = 0;    // cut but not yet reduced (queued + executing)
  size_t buffered_uploads = 0;   // uploads resident in backend memory
  size_t accepted_so_far = 0;    // accepted uploads across finished shards
  size_t rejected_so_far = 0;    // rejected uploads across finished shards
  double backpressure_wait_ms = 0;  // producer time blocked on the window
};

// The structured verdict of one verification stream.
template <PrimeOrderGroup G>
struct VerifyReport {
  // Which backend produced this report (VerifyBackendKindName value).
  std::string backend;

  // Ascending global indices of accepted uploads.
  std::vector<size_t> accepted;

  // Typed rejections, ascending by index.
  std::vector<RejectionReason> rejections;

  // commitment_products[k][m] = product over accepted uploads of
  // commitments[k][m] -- the client half of the Eq. 10 left-hand side,
  // consumable by PublicVerifier::CheckFinalWithProducts. Empty when the
  // stream ran with VerifyOptions::compute_products == false.
  std::vector<std::vector<typename G::Element>> commitment_products;

  size_t total_uploads = 0;
  size_t num_shards = 0;
  size_t shards_with_fallback = 0;  // shards whose batch check failed (blame search)

  VerifyTimings timings;

  bool has_products() const { return !commitment_products.empty(); }

  // The legacy "client <i>: <why>" strings, in rejection order.
  std::vector<std::string> RenderedReasons() const {
    std::vector<std::string> out;
    out.reserve(rejections.size());
    for (const RejectionReason& r : rejections) {
      out.push_back(r.Render());
    }
    return out;
  }
};

}  // namespace vdp

#endif  // SRC_VERIFY_REPORT_H_
