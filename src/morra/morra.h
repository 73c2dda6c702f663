// Morra (paper Algorithm 1): K-party commit-reveal sampling of public
// unbiased coins, secure against a dishonest majority of active parties.
//
// Every party commits to a batch of uniform Z_q contributions, commitments
// are broadcast in index order, then openings are revealed in *reverse*
// order (so nobody's contribution can depend on another's). Coin j is
// 1 iff sum_k m_{k,j} mod q lands in the upper half of the field. One honest
// party suffices for unbiased output; binding commitments make equivocation
// detectable and attributable.
//
// Cost: each party's commitments are computed on the pool, and each revealed
// batch of openings is checked with one random-linear-combination check
// (src/batch/batch_openings.h: one MSM plus one joint comb per party, error
// 2^-128) instead of a recommitment per opening. A failed check aborts and
// blames the party whose batch it was, so attribution is per party, exactly
// as with per-opening checks.
//
// Two commitment instantiations are provided: Pedersen (the paper's choice,
// measured in Table 1) and hash commitments (an ablation; see bench_morra).
#ifndef SRC_MORRA_MORRA_H_
#define SRC_MORRA_MORRA_H_

#include <memory>
#include <vector>

#include "src/batch/batch_openings.h"
#include "src/commit/hash_commitment.h"
#include "src/commit/pedersen.h"
#include "src/group/group.h"

namespace vdp {

inline constexpr size_t kNoCheater = static_cast<size_t>(-1);

struct MorraOutcome {
  std::vector<bool> coins;
  bool aborted = false;
  size_t cheater = kNoCheater;  // party index when a bad opening is detected
};

// A Morra participant. The honest implementation samples uniformly and
// reveals faithfully; adversarial subclasses (morra/adversary.h) override the
// hooks to cheat in specific ways.
template <PrimeOrderGroup G>
class MorraParty {
 public:
  using Scalar = typename G::Scalar;
  using Element = typename G::Element;

  struct Opening {
    Scalar m;
    Scalar r;
  };

  explicit MorraParty(SecureRng rng) : rng_(std::move(rng)) {}
  virtual ~MorraParty() = default;

  // Phase 1: sample contributions, return commitments (broadcast). Every
  // opening is drawn first, in coin order, so the commitments can be
  // computed on the pool without changing a byte.
  virtual std::vector<Element> CommitPhase(size_t num_coins, const Pedersen<G>& ped,
                                           ThreadPool* pool) {
    openings_.clear();
    openings_.reserve(num_coins);
    for (size_t j = 0; j < num_coins; ++j) {
      openings_.push_back(DrawOpening());
    }
    std::vector<Element> commitments(num_coins);
    ForEachIndex(pool, num_coins, [&](size_t j) {
      commitments[j] = ped.Commit(openings_[j].m, openings_[j].r);
    });
    return commitments;
  }

  // Broadcast observation hooks (adversaries may react to these; the
  // commitments are already binding by the time reveals flow).
  virtual void ObserveCommitments(size_t party, const std::vector<Element>& commitments) {
    (void)party;
    (void)commitments;
  }
  virtual void ObserveReveal(size_t party, const std::vector<Opening>& openings) {
    (void)party;
    (void)openings;
  }

  // Phase 2: reveal openings. Returning an empty vector models early abort.
  virtual std::vector<Opening> RevealPhase() { return openings_; }

 protected:
  // One coin's contribution and commitment randomness; the honest party
  // draws both uniformly (m first).
  virtual Opening DrawOpening() { return Opening{Scalar::Random(rng_), Scalar::Random(rng_)}; }

  SecureRng rng_;
  std::vector<Opening> openings_;
};

// Runs the protocol among `parties`. Commitments broadcast in index order;
// reveals collected in reverse index order, each party's batch checked with
// one RLC check as it arrives. `pool` computes commitments and shards the
// checks' MSMs; coins, commitments and blame are the same with or without
// it. Must not be invoked from inside a ThreadPool task.
template <PrimeOrderGroup G>
MorraOutcome RunMorra(std::vector<MorraParty<G>*>& parties, size_t num_coins,
                      const Pedersen<G>& ped, ThreadPool* pool = nullptr) {
  using Scalar = typename G::Scalar;
  using Element = typename G::Element;
  MorraOutcome outcome;

  const size_t k = parties.size();
  std::vector<std::vector<Element>> commitments(k);
  for (size_t i = 0; i < k; ++i) {
    commitments[i] = parties[i]->CommitPhase(num_coins, ped, pool);
    if (commitments[i].size() != num_coins) {
      outcome.aborted = true;
      outcome.cheater = i;
      return outcome;
    }
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t other = 0; other < k; ++other) {
      if (other != i) {
        parties[other]->ObserveCommitments(i, commitments[i]);
      }
    }
  }

  // Reveal in reverse order of commitment broadcast (paper step 3).
  std::vector<std::vector<typename MorraParty<G>::Opening>> openings(k);
  for (size_t idx = k; idx-- > 0;) {
    openings[idx] = parties[idx]->RevealPhase();
    if (openings[idx].size() != num_coins) {
      outcome.aborted = true;
      outcome.cheater = idx;
      return outcome;
    }
    const auto& c = commitments[idx];
    const auto& o = openings[idx];
    if (!BatchOpeningsValid(
            ped, "vdp/morra/openings", num_coins,
            [&](size_t j) { return OpeningRef<G>{c[j], o[j].m, o[j].r}; }, pool)) {
      outcome.aborted = true;
      outcome.cheater = idx;
      return outcome;
    }
    for (size_t other = 0; other < k; ++other) {
      if (other != idx) {
        parties[other]->ObserveReveal(idx, openings[idx]);
      }
    }
  }

  // Coin extraction: X_j = sum_k m_{k,j}; coin = [X_j > floor(q/2)].
  auto half_q = Scalar::Order();
  half_q.ShiftRight1();
  outcome.coins.reserve(num_coins);
  for (size_t j = 0; j < num_coins; ++j) {
    Scalar x = Scalar::Zero();
    for (size_t i = 0; i < k; ++i) {
      x += openings[i][j].m;
    }
    outcome.coins.push_back(x.value() > half_q);
  }
  return outcome;
}

// Seed-based Morra over hash commitments: each party commits to a 32-byte
// seed; coins are the XOR of the parties' ChaCha20-expanded seed streams.
// Identical trust model (one honest party suffices), one commitment per
// party instead of per coin -- the fast path quantified in bench_morra.
struct SeedMorraParty {
  SecureRng rng;
  bool abort_on_reveal = false;
  bool equivocate = false;  // present a different seed at reveal time
};

MorraOutcome RunSeedMorra(std::vector<SeedMorraParty>& parties, size_t num_coins);

}  // namespace vdp

#endif  // SRC_MORRA_MORRA_H_
