// The backend factory/registry: the ONLY place that maps ProtocolConfig
// flags to a verification execution strategy.
//
// `batch_verify`, `num_verify_shards` and `remote_verifiers` are
// config-surface only: SelectVerifyBackend is the whole selection policy and
// the only reader of the flags; PublicVerifier, RunProtocol, and
// AuditTranscript never re-interpret them. (Coin proofs are not client
// uploads: PublicVerifier::CheckCoinProofs always takes one RLC check.) A backend kind is nothing but a ShardExecutor and a
// one-shot partition for the one VerifyBackend class (src/verify/backend.h).
// Selected first match wins:
//
//   remote_verifiers set       "remote": RemoteVerifierFleet (src/net/), one
//                               lane per endpoint; num_verify_shards shards
//                               when > 1, else two per endpoint
//   batch_verify, or           "sharded": InProcessShardExecutor, RLC
//   num_verify_shards > 1       batches; num_verify_shards shards
//   otherwise                  "per-proof": InProcessShardExecutor, the
//                               per-proof oracle; one whole-stream shard
#ifndef SRC_VERIFY_FACTORY_H_
#define SRC_VERIFY_FACTORY_H_

#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/verify/backend.h"

namespace vdp {

enum class VerifyBackendKind {
  kPerProof,
  kSharded,
  kRemote,
};

inline const char* VerifyBackendKindName(VerifyBackendKind kind) {
  switch (kind) {
    case VerifyBackendKind::kPerProof:
      return "per-proof";
    case VerifyBackendKind::kSharded:
      return "sharded";
    case VerifyBackendKind::kRemote:
      return "remote";
  }
  return "unknown";
}

// Every registered backend, in oracle-first order. The conformance suite
// iterates this list; a new backend joins the registry by being added here
// and in MakeVerifyBackend's switch.
inline std::vector<VerifyBackendKind> AllVerifyBackendKinds() {
  return {VerifyBackendKind::kPerProof, VerifyBackendKind::kSharded,
          VerifyBackendKind::kRemote};
}

inline std::optional<VerifyBackendKind> VerifyBackendKindFromName(std::string_view name) {
  for (VerifyBackendKind kind : AllVerifyBackendKinds()) {
    if (name == VerifyBackendKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

// The whole mode-selection policy, in one function.
inline VerifyBackendKind SelectVerifyBackend(const ProtocolConfig& config) {
  if (!config.remote_verifiers.empty()) {
    return VerifyBackendKind::kRemote;
  }
  if (config.batch_verify || config.num_verify_shards > 1) {
    return VerifyBackendKind::kSharded;
  }
  return VerifyBackendKind::kPerProof;
}

// Constructs a specific backend. Validates the config first: a nonsensical
// ProtocolConfig never reaches a backend, and the remote kind throws when
// remote_verifiers is empty. `fleet_options` tunes the remote executor's
// timeouts and retries; the in-process kinds ignore it.
template <PrimeOrderGroup G>
std::unique_ptr<VerifyBackend<G>> MakeVerifyBackend(
    VerifyBackendKind kind, const ProtocolConfig& config, Pedersen<G> ped,
    const RemoteFleetOptions& fleet_options = {}) {
  if (auto error = config.Validate(); error.has_value()) {
    throw std::invalid_argument(error->Render());
  }
  std::unique_ptr<ShardExecutor<G>> executor;
  size_t one_shot_shards = config.num_verify_shards;
  switch (kind) {
    case VerifyBackendKind::kPerProof:
      executor = std::make_unique<InProcessShardExecutor<G>>(config, std::move(ped),
                                                             /*per_proof=*/true);
      one_shot_shards = 1;
      break;
    case VerifyBackendKind::kSharded:
      executor = std::make_unique<InProcessShardExecutor<G>>(config, std::move(ped),
                                                             /*per_proof=*/false);
      break;
    case VerifyBackendKind::kRemote:
      executor = std::make_unique<RemoteVerifierFleet<G>>(config, std::move(ped),
                                                          fleet_options);
      if (one_shot_shards <= 1) {
        one_shot_shards = 2 * executor->lanes();  // lanes: one per endpoint
      }
      break;
  }
  if (executor == nullptr) {
    throw std::invalid_argument("unknown VerifyBackendKind");
  }
  return std::make_unique<VerifyBackend<G>>(VerifyBackendKindName(kind), config,
                                            std::move(executor), one_shot_shards);
}

// Constructs the backend the config's flags select. This is the factory
// PublicVerifier, RunProtocol, and AuditTranscript go through; old
// flag-driven ProtocolConfig construction keeps working because the flags
// feed SelectVerifyBackend instead of scattered call-site checks.
template <PrimeOrderGroup G>
std::unique_ptr<VerifyBackend<G>> MakeVerifyBackend(const ProtocolConfig& config,
                                                    Pedersen<G> ped) {
  return MakeVerifyBackend<G>(SelectVerifyBackend(config), config, std::move(ped));
}

}  // namespace vdp

#endif  // SRC_VERIFY_FACTORY_H_
