// Fiat-Shamir transcript: a domain-separated running hash of every public
// protocol message, from which verifier challenges are derived.
//
// The paper's experiments use the Fiat-Shamir transform to make the Sigma-OR
// proofs non-interactive (Appendix C); this transcript is the random oracle
// plumbing. Both prover and verifier feed the same public messages in the
// same order, so they derive the same challenges.
//
// Every operation streams its bytes straight into SHA-256 and allocates
// nothing: each OR proof's challenge runs a fresh transcript, so this sits on
// the hot path of both proving and verifying.
#ifndef SRC_SIGMA_TRANSCRIPT_H_
#define SRC_SIGMA_TRANSCRIPT_H_

#include <string_view>

#include "src/common/sha256.h"

namespace vdp {

class Transcript {
 public:
  explicit Transcript(std::string_view protocol_label);

  // Absorbs a labeled message.
  void Append(std::string_view label, BytesView data);
  void AppendU64(std::string_view label, uint64_t value);

  // Derives a 32-byte challenge and folds it back into the state, so later
  // challenges depend on earlier ones.
  Sha256::Digest ChallengeBytes(std::string_view label);

  // Convenience: challenge reduced into a scalar field.
  template <typename S>
  S ChallengeScalar(std::string_view label) {
    Sha256::Digest d = ChallengeBytes(label);
    return S::FromBytesWide(BytesView(d.data(), d.size()));
  }

 private:
  // state <- H("vdp/transcript-absorb" || state || u32le(|tag|) || tag ||
  // u32le(|data|) || data), where tag = tag_head || tag_tail.
  void Absorb(std::string_view tag_head, std::string_view tag_tail, BytesView data);

  Sha256::Digest state_;
};

}  // namespace vdp

#endif  // SRC_SIGMA_TRANSCRIPT_H_
