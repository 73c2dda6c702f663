// Random-linear-combination combiner sampling for batch verification.
//
// A batch verifier multiplies the N per-proof verification equations together
// after raising equation i to a random combiner gamma_i. If any single
// equation fails, the combined equation holds only if the combiners land in a
// single residue class mod the (prime) group order, which a 128-bit uniform
// combiner does with probability 2^-128. The combiners are derived by forking
// a SecureRng from a Fiat-Shamir transcript over the full batch, so a prover
// cannot choose proofs as a function of the combiners, and verification stays
// deterministic (auditable) for a fixed batch.
#ifndef SRC_BATCH_COMBINER_H_
#define SRC_BATCH_COMBINER_H_

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/sigma/transcript.h"

namespace vdp {

// Binds a batch's combiners to every entry of the batch with one absorb.
// Entries stream, each prefixed by its u64 length, into a single SHA-256;
// the transcript takes the domain, the count and that digest. A transcript
// Append per entry would rehash the chained state every time (for a few
// thousand entries, several times the cost of one pass over the bytes).
// Callers add a fixed sequence of entries per item, so with the length
// prefixes and the count the stream encodes the batch unambiguously.
class CombinerBinder {
 public:
  CombinerBinder(std::string domain, uint64_t count)
      : domain_(std::move(domain)), count_(count) {}

  void Add(BytesView entry) {
    AddLength(entry.size());
    entries_.Update(entry);
  }

  // Adds an entry of `size` bytes without joining it: write(sink) must pass
  // exactly those bytes, in order, to sink(BytesView). The digest is that of
  // Add over the joined bytes.
  template <typename Write>
  void AddPieces(uint64_t size, Write&& write) {
    AddLength(size);
    write([this](BytesView piece) { entries_.Update(piece); });
  }

  // The combiner generator; the binder must not be used afterwards.
  SecureRng Fork() {
    Transcript t(domain_);
    t.AppendU64("count", count_);
    const Sha256::Digest entries = entries_.Finalize();
    t.Append("entries", BytesView(entries.data(), entries.size()));
    const Sha256::Digest digest = t.ChallengeBytes("batch/combiner-seed");
    static_assert(sizeof(Sha256::Digest) == SecureRng::kSeedSize);
    SecureRng::Seed seed;
    std::copy(digest.begin(), digest.end(), seed.begin());
    return SecureRng(seed);
  }

 private:
  void AddLength(uint64_t size) {
    uint8_t len[8];
    for (size_t i = 0; i < 8; ++i) {
      len[i] = static_cast<uint8_t>(size >> (56 - 8 * i));
    }
    entries_.Update(BytesView(len, sizeof(len)));
  }

  std::string domain_;
  uint64_t count_;
  Sha256 entries_;
};

// A nonzero 128-bit combiner. Keeping combiners short (rather than full
// group-order width) halves the MSM work for the terms they multiply while
// keeping the failure probability at 2^-128.
template <typename S>
S SampleCombiner(SecureRng& rng) {
  for (;;) {
    uint8_t bytes[16];
    rng.FillBytes(bytes, sizeof(bytes));
    S s = S::FromBytesWide(BytesView(bytes, sizeof(bytes)));
    if (!s.IsZero()) {
      return s;
    }
  }
}

}  // namespace vdp

#endif  // SRC_BATCH_COMBINER_H_
