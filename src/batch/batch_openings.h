// Batch check of Pedersen openings via random linear combination.
//
// n claimed openings (c_i, m_i, r_i) each demand c_i == g^{m_i} h^{r_i}.
// Raising equation i to a random 128-bit weight rho_i and multiplying gives
//   prod_i c_i^{rho_i} == g^{sum rho_i m_i} * h^{sum rho_i r_i}
// -- one n-term MSM against one joint comb, instead of n joint combs.
//
// Soundness is the combiner argument of combiner.h. Let D_i = c_i /
// Com(m_i, r_i); the batch accepts iff prod_i D_i^{rho_i} == 1. If some D_j
// is not the identity it has prime order q, so whatever the other weights,
// at most one residue of rho_j mod q satisfies the equation. The weights are
// nonzero 128-bit values, distinct mod q, so a batch holding a bad opening
// passes with probability at most 2^-128 per check (1/q on the toy ModP64).
// The weights are Fiat-Shamir-derived from the domain, the count and every
// (c_i, m_i, r_i), so whoever chooses the openings fixes them before the
// weights exist; a cancelling pair (m_a + d, m_b - d), which an unweighted
// product would accept, is caught like any other bad opening. Completeness is
// exact: an all-valid batch always accepts.
#ifndef SRC_BATCH_BATCH_OPENINGS_H_
#define SRC_BATCH_BATCH_OPENINGS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/batch/combiner.h"
#include "src/batch/msm.h"
#include "src/commit/pedersen.h"

namespace vdp {

// One claimed opening, by reference into the caller's storage.
template <PrimeOrderGroup G>
struct OpeningRef {
  const typename G::Element& c;
  const typename G::Scalar& m;
  const typename G::Scalar& r;
};

// True iff every opening at(0) .. at(n-1) (each an OpeningRef<G>) is valid,
// up to the 2^-128 error above; a single opening is checked exactly. Must not
// be invoked from inside a ThreadPool task (the MSM shards onto the pool).
template <PrimeOrderGroup G, typename At>
bool BatchOpeningsValid(const Pedersen<G>& ped, const std::string& domain, size_t n,
                        const At& at, ThreadPool* pool = nullptr) {
  using S = typename G::Scalar;
  if (n == 0) {
    return true;
  }
  if (n == 1) {
    const OpeningRef<G> o = at(0);
    return ped.Verify(o.c, o.m, o.r);
  }

  std::vector<typename G::Element> bases;
  bases.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(at(i).c);
  }

  // Commitments encode in chunks (one shared field inversion per chunk on
  // curve groups) so the n encodings are never held at once.
  constexpr size_t kEncodeChunk = 256;
  CombinerBinder binder(domain, n);
  std::vector<typename G::Element> chunk;
  for (size_t from = 0; from < n; from += kEncodeChunk) {
    const size_t to = std::min(n, from + kEncodeChunk);
    chunk.assign(bases.begin() + static_cast<long>(from), bases.begin() + static_cast<long>(to));
    const std::vector<Bytes> enc = EncodeAll<G>(chunk);
    for (size_t i = from; i < to; ++i) {
      const OpeningRef<G> o = at(i);
      binder.Add(enc[i - from]);
      binder.Add(o.m.Encode());
      binder.Add(o.r.Encode());
    }
  }
  SecureRng rng = binder.Fork();

  std::vector<S> weights;
  weights.reserve(n);
  S sum_m = S::Zero();
  S sum_r = S::Zero();
  for (size_t i = 0; i < n; ++i) {
    const OpeningRef<G> o = at(i);
    S rho = SampleCombiner<S>(rng);
    sum_m += rho * o.m;
    sum_r += rho * o.r;
    weights.push_back(rho);
  }
  return Msm<G>(bases, weights, pool) == ped.Commit(sum_m, sum_r);
}

}  // namespace vdp

#endif  // SRC_BATCH_BATCH_OPENINGS_H_
