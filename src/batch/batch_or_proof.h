// Batch verification of Sigma-OR bit proofs via random linear combination,
// and blame attribution by bisection when a batch fails.
//
// Each OR proof demands (or_proof.h):
//   (1) e0 + e1 == e            (e recomputed from the Fiat-Shamir transcript)
//   (2) h^{z0} == a0 * c^{e0}
//   (3) h^{z1} == a1 * (c/g)^{e1}
// Check (1) is scalar arithmetic and stays per-proof. Checks (2) and (3) are
// the expensive ones: two variable-base exponentiations per proof. Raising
// proof i's equations to random 128-bit combiners alpha_i, beta_i and
// multiplying everything out gives a single equation
//   h^{sum(alpha z0 + beta z1)} * g^{sum(beta e1)}
//     == prod_i a0^{alpha} * a1^{beta} * c^{alpha e0 + beta e1},
// whose right side is one 3N-term MSM and whose left side is two fixed-base
// exponentiations. One invalid proof escapes with probability 2^-128;
// completeness is exact, so an all-valid batch always accepts.
//
// Blame (OrBatch::Blame). The error of a set S of proofs is
//   E(S) = prod_{i in S} a0^{alpha} a1^{beta} c^{alpha e0 + beta e1}
//          / (h^{sum_S(alpha z0 + beta z1)} * g^{sum_S(beta e1)}),
// so the batch check above is E(all) == 1, and E(S) = E(L) * E(R) for any
// split of S into halves L and R. A failing set pays one MSM over its left
// half; the right half's error is E(S) / E(L), with no MSM. Only halves whose
// error is not 1 are searched further, down to leaves of a few proofs that
// OrVerify checks one by one. A shard with one forged proof among n thus
// costs MSMs over n/2 + n/4 + ... proofs -- about one more RLC -- instead of
// n per-proof checks (group testing: Pastuszak, Michalek, Pieprzyk and
// Seberry, PKC 2000; Zaverucha and Stinson, ICITS 2009).
//
// Soundness of blame. The weights are Fiat-Shamir-bound to the whole batch
// (every context, c and proof), so they bind every sub-batch too: they exist
// only after every proof is fixed. They are not derived again per sub-batch;
// that would cost a hash pass per node for no gain in this argument. If
// proof j in a set S is invalid, one of its two equations has a non-identity
// residual D of prime order, and E(S) = D^{w_j} * (terms independent of the
// weight w_j in {alpha_j, beta_j}), so E(S) == 1 for at most one residue of
// the uniform 128-bit w_j: probability at most 2^-128 per set. The search
// tests at most 2n - 1 dyadic sets, so by a union bound a bad proof is
// accepted with probability at most (2n - 1) * 2^-128. Rejections are exact:
// a set of valid proofs has error 1, so every proof blamed is invalid.
#ifndef SRC_BATCH_BATCH_OR_PROOF_H_
#define SRC_BATCH_BATCH_OR_PROOF_H_

#include <string>
#include <utility>
#include <vector>

#include "src/batch/combiner.h"
#include "src/batch/msm.h"
#include "src/obs/metrics.h"
#include "src/sigma/or_proof.h"

namespace vdp {

// One OR verification job, mirroring the arguments of OrVerify.
template <PrimeOrderGroup G>
struct OrInstance {
  typename G::Element c;
  OrProof<G> proof;
  std::string context;
};

// The per-proof work of one batch, done once: check (1) of every instance,
// one combiner digest over the whole batch, one (alpha, beta) pair per
// instance, and the MSM terms of every instance whose split holds (the
// "live" instances, which the error tree ranges over). Construction costs no
// MSM; RootPasses runs the batch check and Blame the search. The batch keeps
// references to ped and instances, which must outlive it.
template <PrimeOrderGroup G>
class OrBatch {
 public:
  using Element = typename G::Element;
  using S = typename G::Scalar;

  OrBatch(const Pedersen<G>& ped, const std::vector<OrInstance<G>>& instances,
          ThreadPool* pool)
      : ped_(ped), instances_(instances), valid_(instances.size(), 0) {
    const size_t n = instances.size();
    SecureRng rng = CheckSplits(pool);
    // Weights are drawn for every instance in order, so instance i's pair
    // does not depend on which splits failed.
    live_.reserve(n);
    bases_.reserve(3 * n);
    scalars_.reserve(3 * n);
    h_prefix_.reserve(n + 1);
    g_prefix_.reserve(n + 1);
    h_prefix_.push_back(S::Zero());
    g_prefix_.push_back(S::Zero());
    for (size_t i = 0; i < n; ++i) {
      const S alpha = SampleCombiner<S>(rng);
      const S beta = SampleCombiner<S>(rng);
      if (valid_[i] == 0) {
        ++split_failures_;
        continue;
      }
      const OrProof<G>& p = instances[i].proof;
      live_.push_back(i);
      h_prefix_.push_back(h_prefix_.back() + alpha * p.z0 + beta * p.z1);
      g_prefix_.push_back(g_prefix_.back() + beta * p.e1);
      bases_.push_back(p.a0);
      scalars_.push_back(alpha);
      bases_.push_back(p.a1);
      scalars_.push_back(beta);
      bases_.push_back(instances[i].c);
      scalars_.push_back(alpha * p.e0 + beta * p.e1);
    }
  }

  // Instances whose split e0 + e1 == e failed; each is invalid as it stands.
  size_t split_failures() const { return split_failures_; }

  // The batch check over every live instance: one 3N-term MSM plus one
  // joint comb. True iff E(live) == 1. Must not be invoked from inside a
  // ThreadPool task (the MSM shards onto the pool).
  bool RootPasses(ThreadPool* pool) {
    root_error_ = Error(0, live_.size(), pool);
    root_checked_ = true;
    return root_error_ == G::Identity();
  }

  // valid[i] == 1 iff instance i verifies (OrVerify would accept it), up to
  // the error stated at the top of this file. Split failures are blamed
  // directly; the rest by searching the error tree below the root. Runs
  // RootPasses first if the caller did not.
  //
  // Density cutoff. Bisecting a failing set of k proofs costs an MSM over
  // floor(k/2) of them. The search may spend one RLC's worth -- MSMs over as
  // many proofs as are live -- plus one proof's worth for every proof a
  // passing set clears; a failing set it cannot afford, and any failing set
  // of at most kLeafProofs, is checked per proof with OrVerify on the pool.
  // A set with one bad proof clears a half at least as large as its MSM, so
  // only sets whose halves both fail draw on the allowance: three forgeries
  // never exhaust it, and every proof forged exhausts it within two levels.
  // The rule reads only the batch's data (which sets fail), never
  // timing or pool size, so MSM counts repeat exactly. Worst case: with u
  // the MSM cost of one proof's terms and v >= u the cost of one OrVerify,
  // spending at most (live + cleared) * u on MSMs and (live - cleared) * v
  // on OrVerify totals at most live * (u + v) after the root check -- the
  // per-proof re-scan plus one RLC. For every proof forged nothing is
  // cleared, so the search adds at most 3 * live MSM scalars to the root's
  // 3 * live (enforced by a test).
  std::vector<uint8_t> Blame(ThreadPool* pool) {
    if (!root_checked_) {
      RootPasses(pool);
    }
    if (root_error_ == G::Identity()) {
      return valid_;
    }
    struct Node {
      size_t lo, hi;  // live_ positions [lo, hi)
      Element error;  // E of that set, never 1
    };
    std::vector<Node> stack{{0, live_.size(), root_error_}};
    std::vector<size_t> recheck;  // live_ positions left to OrVerify
    size_t allowance = live_.size();
    size_t spent = 0;
    bisect_batches_ = 0;
    while (!stack.empty()) {
      Node node = std::move(stack.back());
      stack.pop_back();
      const size_t k = node.hi - node.lo;
      const size_t half = k / 2;
      if (k <= kLeafProofs || spent + half > allowance) {
        for (size_t j = node.lo; j < node.hi; ++j) {
          recheck.push_back(j);
        }
        continue;
      }
      spent += half;
      ++bisect_batches_;
      const size_t mid = node.lo + half;
      Element left = Error(node.lo, mid, pool);
      Element right = G::Mul(node.error, G::Inverse(left));
      // Right goes on the stack first, so the left half is searched first.
      if (right == G::Identity()) {
        allowance += node.hi - mid;
      } else {
        stack.push_back({mid, node.hi, std::move(right)});
      }
      if (left == G::Identity()) {
        allowance += half;
      } else {
        stack.push_back({node.lo, mid, std::move(left)});
      }
    }
    obs::GlobalCounter(obs::kVerifyBisectBatches)->Add(bisect_batches_);
    ForEachIndex(pool, recheck.size(), [&](size_t r) {
      const size_t i = live_[recheck[r]];
      const OrInstance<G>& inst = instances_[i];
      valid_[i] = OrVerify(ped_, inst.c, inst.proof, inst.context) ? 1 : 0;
    });
    return valid_;
  }

  // Sub-batch MSMs the last Blame ran.
  size_t bisect_batches() const { return bisect_batches_; }

 private:
  // Failing sets of at most this many proofs go to OrVerify. On a 512-proof
  // shard with one to eight forgeries, leaves of 1, 2, 4 and 8 proofs cost
  // the same within noise (ed25519 and modp-256, one core); four keeps the
  // smallest MSMs, whose doubling chain they do not amortize, out of the
  // search.
  static constexpr size_t kLeafProofs = 4;

  // Check (1) for every instance into valid_, and the combiner generator
  // bound to the whole batch. Every (c, a0, a1) is encoded once, in one
  // batch (one shared field inversion on curve groups): the challenges and
  // the combiner transcript both read these bytes, and they are freed on
  // return, before any MSM.
  SecureRng CheckSplits(ThreadPool* pool) {
    const size_t n = instances_.size();
    std::vector<Element> es;
    es.reserve(3 * n);
    for (const OrInstance<G>& inst : instances_) {
      es.push_back(inst.c);
      es.push_back(inst.proof.a0);
      es.push_back(inst.proof.a1);
    }
    const std::vector<Bytes> enc = EncodeAll<G>(es);
    ForEachIndex(pool, n, [&](size_t i) {
      const OrProof<G>& p = instances_[i].proof;
      const S e = OrChallenge(ped_, enc[3 * i], enc[3 * i + 1], enc[3 * i + 2],
                              instances_[i].context);
      valid_[i] = p.e0 + p.e1 == e ? 1 : 0;
    });
    CombinerBinder binder("vdp/batch-or", n);
    for (size_t i = 0; i < n; ++i) {
      const BytesView a0 = enc[3 * i + 1];
      const BytesView a1 = enc[3 * i + 2];
      binder.Add(StrView(instances_[i].context));
      binder.Add(enc[3 * i]);
      binder.AddPieces(OrProof<G>::SerializedSize(a0.size(), a1.size()), [&](auto sink) {
        instances_[i].proof.SerializeTo(a0, a1, sink);
      });
    }
    return binder.Fork();
  }

  // E over live_ positions [lo, hi): their MSM terms against the fixed-base
  // terms with negated exponents, so no group inversion.
  Element Error(size_t lo, size_t hi, ThreadPool* pool) const {
    const std::vector<std::pair<const FixedBaseTable<G>*, S>> fixed = {
        {&ped_.h_table(), -(h_prefix_[hi] - h_prefix_[lo])},
        {&ped_.g_table(), -(g_prefix_[hi] - g_prefix_[lo])}};
    if (lo == 0 && hi == live_.size()) {
      return MsmWithFixedTerms<G>(fixed, bases_, scalars_, pool);
    }
    const std::vector<Element> bases(bases_.begin() + static_cast<long>(3 * lo),
                                     bases_.begin() + static_cast<long>(3 * hi));
    const std::vector<S> scalars(scalars_.begin() + static_cast<long>(3 * lo),
                                 scalars_.begin() + static_cast<long>(3 * hi));
    return MsmWithFixedTerms<G>(fixed, bases, scalars, pool);
  }

  const Pedersen<G>& ped_;
  const std::vector<OrInstance<G>>& instances_;
  std::vector<uint8_t> valid_;  // verdict per instance: splits, then Blame
  size_t split_failures_ = 0;
  std::vector<size_t> live_;    // instances whose split holds, ascending
  // Live instance j contributes bases_[3j..3j+3) = (a0, a1, c) with scalars
  // (alpha, beta, alpha e0 + beta e1); h_prefix_[j] and g_prefix_[j] sum
  // (alpha z0 + beta z1) and (beta e1) over the live instances before j.
  std::vector<Element> bases_;
  std::vector<S> scalars_;
  std::vector<S> h_prefix_;
  std::vector<S> g_prefix_;
  bool root_checked_ = false;
  Element root_error_ = G::Identity();
  size_t bisect_batches_ = 0;
};

// Batched equivalent of calling OrVerify on every instance and requiring
// all to pass. Must not be invoked from inside a ThreadPool task (the MSM
// shards onto the pool).
template <PrimeOrderGroup G>
bool BatchOrVerify(const Pedersen<G>& ped, const std::vector<OrInstance<G>>& instances,
                   ThreadPool* pool = nullptr) {
  if (instances.empty()) {
    return true;
  }
  OrBatch<G> batch(ped, instances, pool);
  return batch.split_failures() == 0 && batch.RootPasses(pool);
}

}  // namespace vdp

#endif  // SRC_BATCH_BATCH_OR_PROOF_H_
