// VerifyBackend: the one seam through which client-upload verification
// (Line 3 of Figure 2) executes.
//
// The paper's public verifier is a single logical object; this interface
// keeps it that way in code. Every execution strategy -- the per-proof
// oracle, the in-process RLC-batched shard pipeline, and the verify_server
// fleet over sockets -- implements the same three-step lifecycle:
//
//   backend->Start(options);          // begin a stream
//   backend->Add(upload);             // ingest uploads (or Submit(vector))
//   VerifyReport<G> r = backend->Finish();
//
// and produces the same structured VerifyReport (src/verify/report.h), with
// bit-identical accepted sets, rejection reasons, and commitment products.
// Callers (PublicVerifier, RunProtocol, AuditTranscript) never dispatch on
// ProtocolConfig flags themselves; MakeVerifyBackend (src/verify/factory.h)
// owns that policy.
#ifndef SRC_VERIFY_BACKEND_H_
#define SRC_VERIFY_BACKEND_H_

#include <string_view>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/messages.h"
#include "src/obs/trace.h"
#include "src/verify/report.h"

namespace vdp {

// Per-stream knobs, fixed at Start().
struct VerifyOptions {
  // Compute the per-prover/per-bin products of accepted commitments (the
  // client half of Eq. 10). Skip when only decisions are needed.
  bool compute_products = true;
  // Thread pool for in-process parallelism; nullptr runs serially. Backends
  // with their own execution resources (a server fleet) may ignore it.
  ThreadPool* pool = nullptr;
  // Streaming knobs for backends on the shard dispatcher
  // (src/shard/stream_dispatch.h): uploads per sealed shard, and the bound
  // on shards cut but not yet retired (Add blocks when it is reached). 0
  // defers to the ProtocolConfig's stream_* fields, which at 0 defer to the
  // dispatcher's defaults.
  size_t stream_shard_capacity = 0;
  size_t stream_max_inflight_shards = 0;
  // When set, the stream records trace spans (ingest, verify, per-shard
  // dispatch, combine) into this collector, parented under trace_parent --
  // for the remote backend the span context also crosses the wire so server
  // spans stitch into the same tree. Null collector = tracing off, zero
  // overhead.
  obs::TraceCollector* tracer = nullptr;
  obs::TraceContext trace_parent{};
};

template <PrimeOrderGroup G>
class VerifyBackend {
 public:
  virtual ~VerifyBackend() = default;

  // Stable identifier ("per-proof", "sharded", "remote"); stamped into
  // every report this backend produces.
  virtual std::string_view name() const = 0;

  // Begins a fresh verification stream, discarding any prior state. Must be
  // called before Add/Submit; a backend is reusable via a new Start after
  // Finish.
  virtual void Start(const VerifyOptions& options) = 0;

  // Ingests the next upload of the broadcast stream; global indices are
  // assigned in arrival order. Backends verify eagerly: full shards leave
  // for verification while ingestion continues (bounded-memory streaming).
  virtual void Add(ClientUploadMsg<G> upload) = 0;

  // Verifies everything ingested since Start and returns the combined
  // report. Resets the stream state.
  virtual VerifyReport<G> Finish() = 0;

  // Bulk ingestion that surrenders the buffer: equivalent to Add of each
  // element in arrival order, but backends may adopt the allocation outright
  // (no per-upload copies). The vector is left empty.
  virtual void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) {
    for (ClientUploadMsg<G>& upload : uploads) {
      Add(std::move(upload));
    }
    uploads.clear();
  }

  // Bulk ingestion; equivalent to Add for each element.
  void Submit(const std::vector<ClientUploadMsg<G>>& uploads) {
    for (const ClientUploadMsg<G>& upload : uploads) {
      Add(upload);
    }
  }

  // Rvalue fast path: moves the uploads into the stream instead of copying.
  void Submit(std::vector<ClientUploadMsg<G>>&& uploads) {
    AddBulk(std::move(uploads));
  }

  // Point-in-time pipeline state of the current stream: live shard/window
  // occupancy. Zeroes outside a stream.
  virtual VerifyProgress Progress() const { return VerifyProgress{}; }

  // One-shot convenience: Start + Submit + Finish. Backends with a zero-copy
  // bulk path override this; it must behave exactly like the streaming
  // lifecycle, including discarding any previously buffered stream (the
  // conformance suite asserts result identity).
  virtual VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                                    const VerifyOptions& options = {}) {
    Start(options);
    Submit(uploads);
    return Finish();
  }
};

}  // namespace vdp

#endif  // SRC_VERIFY_BACKEND_H_
