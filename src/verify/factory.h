// The backend factory/registry: the ONLY place that maps ProtocolConfig
// flags to a verification execution strategy.
//
// `batch_verify`, `num_verify_shards`, `verify_workers`, and
// `remote_verifiers` are config-surface only: SelectVerifyBackend is the
// whole selection policy, and PublicVerifier, RunProtocol, and
// AuditTranscript never re-interpret the flags themselves.
//
// Three strategies, selected first match wins:
//
//   remote_verifiers set, or
//   verify_workers > 1    ->  RemoteBackend    (verify_server fleet; spawned
//                                               locally for verify_workers)
//   batch_verify, or
//   num_verify_shards > 1 ->  ShardedBackend   (in-process RLC shard pipeline)
//   otherwise             ->  PerProofBackend  (the per-proof oracle)
#ifndef SRC_VERIFY_FACTORY_H_
#define SRC_VERIFY_FACTORY_H_

#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/verify/per_proof_backend.h"
#include "src/verify/remote_backend.h"
#include "src/verify/sharded_backend.h"

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
  if (!config.remote_verifiers.empty() || config.verify_workers > 1) {
    return VerifyBackendKind::kRemote;
  }
  if (config.batch_verify || config.num_verify_shards > 1) {
    return VerifyBackendKind::kSharded;
  }
  return VerifyBackendKind::kPerProof;
}

// Constructs a specific backend. Validates the config first: a nonsensical
// ProtocolConfig never reaches a backend.
template <PrimeOrderGroup G>
std::unique_ptr<VerifyBackend<G>> MakeVerifyBackend(VerifyBackendKind kind,
                                                    const ProtocolConfig& config,
                                                    Pedersen<G> ped) {
  if (auto error = config.Validate(); error.has_value()) {
    throw std::invalid_argument(error->Render());
  }
  switch (kind) {
    case VerifyBackendKind::kPerProof:
      return std::make_unique<PerProofBackend<G>>(config, std::move(ped));
    case VerifyBackendKind::kSharded:
      return std::make_unique<ShardedBackend<G>>(config, std::move(ped));
    case VerifyBackendKind::kRemote:
      return std::make_unique<RemoteBackend<G>>(config, std::move(ped));
  }
  throw std::invalid_argument("unknown VerifyBackendKind");
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
