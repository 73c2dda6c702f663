// Protocol configuration shared by clients, provers and the verifier.
#ifndef SRC_CORE_PARAMS_H_
#define SRC_CORE_PARAMS_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/hex.h"
#include "src/dp/binomial.h"
#include "src/net/endpoint.h"

namespace vdp {

// A rejected ProtocolConfig: which field is nonsensical and why. Returned by
// ProtocolConfig::Validate() and surfaced as VerdictCode::kInvalidConfig by
// RunProtocol / AuditTranscript, or as std::invalid_argument by the backend
// factory (src/verify/factory.h).
struct ConfigError {
  std::string field;
  std::string message;

  std::string Render() const { return "ProtocolConfig." + field + ": " + message; }
};

// Which protocol realizes the O_morra oracle.
enum class MorraMode {
  kPedersen,  // Algorithm 1 verbatim: one committed Z_q contribution per coin
  kSeed,      // hash-committed seeds, coins from XORed ChaCha20 streams
};

struct ProtocolConfig {
  // Privacy target; determines the number of private coins per noise draw.
  double epsilon = 1.0;
  double delta = 1.0 / 1024;

  // K >= 1 provers (K = 1 is the trusted curator model).
  size_t num_provers = 1;

  // M >= 1 histogram bins; clients contribute a one-hot vector (M > 1) or a
  // single bit (M = 1).
  size_t num_bins = 1;

  MorraMode morra_mode = MorraMode::kPedersen;

  // Verify sigma proofs in batches: random-linear-combination checks over one
  // multi-scalar multiplication (src/batch/) instead of per-proof
  // exponentiation chains. Accept/reject decisions match the per-proof path:
  // an all-valid batch always accepts, and on batch failure the verifier
  // falls back to per-proof checks to attribute blame. For client uploads
  // this selects the sharded backend (src/verify/sharded_backend.h); with
  // num_verify_shards at 1 the whole stream is one batch.
  bool batch_verify = false;

  // Partition client uploads into this many contiguous shards for validation
  // (src/verify/sharded_backend.h). Each shard batch-verifies independently
  // (fanned across the ThreadPool) and a deterministic combiner merges the
  // per-shard results; the accepted set is bit-identical to the monolithic
  // path. On a batch failure only the offending shard pays the per-proof
  // blame-attribution fallback. 1 (the default) keeps one whole-stream
  // shard. Note: > 1 selects the sharded backend, which always uses the RLC
  // batch check within each shard, regardless of batch_verify -- decisions
  // are still identical (the fallback is the per-proof oracle), but to run
  // the pure per-proof mode leave num_verify_shards at 1 with batch_verify
  // false.
  size_t num_verify_shards = 1;

  // Farm shard verification out to this many local verify_server processes:
  // when remote_verifiers is empty, the remote backend
  // (src/verify/remote_backend.h) spawns them on loopback under a fresh
  // fleet secret and drives them exactly like a remote fleet -- blamed
  // retries and in-process recovery included, so the verdict never depends
  // on fleet health. 0 (the default) keeps verification in process; 1 is
  // rejected as ambiguous. The one-shot shard partition honors
  // num_verify_shards when > 1, else defaults to two shards per server.
  size_t verify_workers = 0;

  // Farm shard verification out to remote verify_server daemons over
  // authenticated sockets (src/net/): endpoints in the textual form
  // "tcp:host:port" or "unix:/path". Non-empty selects the remote backend
  // (it wins over every other execution flag -- a provisioned fleet is the
  // most explicit statement of intent). Shards are serialized over the
  // versioned wire format (src/wire/), MAC-authenticated per frame, and the
  // decoded results feed the same deterministic combiner, bit-identically to
  // the in-process path. Lost or misbehaving verifiers are blamed,
  // reconnected, and -- as a last resort -- their shards are recovered in
  // process, so the verdict never depends on fleet health.
  std::vector<std::string> remote_verifiers;

  // Streaming ingest knobs (src/shard/stream_dispatch.h), honored by every
  // backend (per-proof, sharded, remote). stream_shard_capacity is the
  // number of uploads per sealed shard; 0 picks the dispatcher default
  // (1024, sized for MSM efficiency). stream_max_inflight_shards bounds
  // shards cut but not yet retired (queued + executing): Add() blocks while
  // the window is full, capping resident memory at roughly
  // (window + 1) * capacity uploads no matter how long the stream runs. 0
  // picks two shards per executor lane.
  size_t stream_shard_capacity = 0;
  size_t stream_max_inflight_shards = 0;

  // Hex-encoded pre-shared fleet secret (>= 16 bytes decoded) used to derive
  // the per-connection transport MAC keys (src/net/auth.h). Required when
  // remote_verifiers is non-empty. Deployment-local: it is never serialized
  // into WireSetup and never crosses the wire.
  std::string remote_auth_key_hex;

  // Domain separation for all Fiat-Shamir transcripts of this run.
  std::string session_id = "vdp-session";

  // Structural sanity check, run before any cryptographic work: RunProtocol,
  // AuditTranscript, and MakeVerifyBackend all call this at entry so a
  // nonsensical configuration is rejected with attribution instead of
  // producing undefined protocol behavior deep inside a backend.
  std::optional<ConfigError> Validate() const {
    if (!std::isfinite(epsilon) || !(epsilon > 0.0)) {
      return ConfigError{"epsilon", "must be finite and > 0"};
    }
    if (!std::isfinite(delta) || !(delta > 0.0) || !(delta < 1.0)) {
      return ConfigError{"delta", "must lie in (0, 1)"};
    }
    if (num_provers == 0) {
      return ConfigError{"num_provers", "at least one prover is required"};
    }
    if (num_bins == 0) {
      return ConfigError{"num_bins", "at least one histogram bin is required"};
    }
    if (num_verify_shards == 0) {
      return ConfigError{"num_verify_shards",
                         "0 shards is meaningless; use 1 for the unsharded path"};
    }
    if (verify_workers == 1) {
      return ConfigError{"verify_workers",
                         "1 is ambiguous (a single worker has in-process semantics); "
                         "use 0 for in-process verification or >= 2 workers"};
    }
    for (const std::string& spec : remote_verifiers) {
      if (!net::ParseEndpoint(spec).has_value()) {
        return ConfigError{"remote_verifiers",
                           "endpoint '" + spec + "' is not tcp:<host>:<port> or unix:<path>"};
      }
    }
    if (!remote_verifiers.empty()) {
      auto key = HexDecode(remote_auth_key_hex);
      if (!key.has_value()) {
        return ConfigError{"remote_auth_key_hex",
                           "remote verifiers require a hex-encoded pre-shared auth key"};
      }
      if (key->size() < 16) {
        return ConfigError{"remote_auth_key_hex",
                           "auth key must decode to at least 16 bytes"};
      }
    }
    return std::nullopt;
  }

  // Coins per prover per bin (Lemma 2.1).
  uint64_t NumCoins() const { return NumCoinsForPrivacy(epsilon, delta); }

  // Publicly known additive offset of the raw output: each of the K provers
  // adds Binomial(nb, 1/2) noise per bin, so the mean offset is K * nb / 2.
  double ExpectedOffset() const {
    return static_cast<double>(num_provers) * static_cast<double>(NumCoins()) / 2.0;
  }
};

}  // namespace vdp

#endif  // SRC_CORE_PARAMS_H_
