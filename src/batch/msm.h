// Multi-scalar multiplication (MSM): computes prod_i bases[i]^scalars[i] over
// any PrimeOrderGroup, far faster than folding independent exponentiations.
//
// This is the engine of the batch-verification subsystem: the random-
// linear-combination batch verifier (batch_or_proof.h) reduces N
// sigma-protocol checks to a couple of MSMs. Three algorithms:
//   - MsmNaive: fold of G::Exp, the correctness oracle for tests,
//   - windowed-NAF Straus (small batches): a shared double-and-add chain over
//     per-point signed-digit tables; groups with cheap negation fold negative
//     digits directly, others collect them in a second accumulator so the
//     whole batch costs one group inversion,
//   - Pippenger (large batches): bucket accumulation per w-bit window; cost
//     per term drops to ~bits/w group operations as the batch grows.
// All fast paths run on the group's acceleration kernel (G::Accel, see
// src/group/group.h): input points are batch-normalized to the kernel's table
// form once (one field inversion for curve groups -- Montgomery's trick), so
// every bucket insert and table add is a mixed addition, and accumulators use
// the dedicated doubling formula instead of the generic group Mul.
// Msm() dispatches on batch size and optionally shards across a ThreadPool
// (chunked, one partial MSM per chunk; partials combine with one add each).
#ifndef SRC_BATCH_MSM_H_
#define SRC_BATCH_MSM_H_

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/group/fixed_base.h"
#include "src/group/group.h"
#include "src/obs/metrics.h"

namespace vdp {

namespace msm_internal {

// Scalars as little-endian 64-bit limbs in one flat buffer, `stride` limbs
// per term: the scalar's own limbs plus one zero headroom limb (the wNAF
// recoding can carry one position past the top bit). One allocation for the
// whole batch; digit and NAF extraction read the terms in place.
class ScalarLimbs {
 public:
  template <typename S>
  explicit ScalarLimbs(const std::vector<S>& scalars)
      : stride_(S::Int::kLimbs + 1), data_(scalars.size() * stride_, 0) {
    for (size_t i = 0; i < scalars.size(); ++i) {
      const auto& limb = scalars[i].value().limb;
      std::copy(limb.begin(), limb.end(), &data_[i * stride_]);
    }
  }

  std::span<uint64_t> operator[](size_t i) { return {data_.data() + i * stride_, stride_}; }
  std::span<const uint64_t> operator[](size_t i) const {
    return {data_.data() + i * stride_, stride_};
  }

 private:
  size_t stride_ = 0;
  std::vector<uint64_t> data_;
};

inline size_t LimbsBitLength(std::span<const uint64_t> v) {
  for (size_t i = v.size(); i-- > 0;) {
    if (v[i] != 0) {
      return i * 64 + (64 - static_cast<size_t>(__builtin_clzll(v[i])));
    }
  }
  return 0;
}

inline bool LimbsZero(std::span<const uint64_t> v) {
  for (uint64_t w : v) {
    if (w != 0) {
      return false;
    }
  }
  return true;
}

inline void LimbsShr1(std::span<uint64_t> v) {
  for (size_t i = 0; i < v.size(); ++i) {
    uint64_t high = (i + 1 < v.size()) ? (v[i + 1] << 63) : 0;
    v[i] = (v[i] >> 1) | high;
  }
}

inline void LimbsAddSmall(std::span<uint64_t> v, uint64_t x) {
  for (size_t i = 0; i < v.size() && x != 0; ++i) {
    uint64_t old = v[i];
    v[i] += x;
    x = (v[i] < old) ? 1 : 0;
  }
}

// Requires v >= x (always true here: x is the low bits just masked off).
inline void LimbsSubSmall(std::span<uint64_t> v, uint64_t x) {
  for (size_t i = 0; i < v.size() && x != 0; ++i) {
    uint64_t old = v[i];
    v[i] -= x;
    x = (v[i] > old) ? 1 : 0;
  }
}

// Window-w non-adjacent form: odd digits in (-2^{w-1}, 2^{w-1}), any two
// nonzero digits at least w positions apart. digits[j] weights 2^j. Consumes
// v (it ends at zero), which needs a zero top limb as headroom.
inline std::vector<int> ComputeWnaf(std::span<uint64_t> v, size_t w) {
  std::vector<int> digits;
  const uint64_t full = uint64_t{1} << w;
  const uint64_t half = full >> 1;
  while (!LimbsZero(v)) {
    int d = 0;
    if ((v[0] & 1) != 0) {
      uint64_t low = v[0] & (full - 1);
      if (low >= half) {
        d = static_cast<int>(low) - static_cast<int>(full);
        LimbsAddSmall(v, full - low);
      } else {
        d = static_cast<int>(low);
        LimbsSubSmall(v, low);
      }
    }
    digits.push_back(d);
    LimbsShr1(v);
  }
  return digits;
}

// Pippenger window width minimizing a simple cost model:
// ceil(bits/w) windows, each costing n bucket inserts + ~1.5 * 2^w running-sum
// additions + w doublings.
inline size_t BestWindow(size_t n, size_t bits) {
  size_t best_w = 2;
  double best_cost = 1e300;
  for (size_t w = 2; w <= 14; ++w) {
    double windows = static_cast<double>((bits + w - 1) / w);
    double cost = windows * (static_cast<double>(n) +
                             1.5 * static_cast<double>(uint64_t{1} << w) +
                             static_cast<double>(w));
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

// Batch-normalize public group elements into the kernel's table form.
template <PrimeOrderGroup G>
void NormalizeBases(const std::vector<typename G::Element>& bases,
                    std::vector<typename G::Accel::A>* out) {
  using Ac = typename G::Accel;
  std::vector<typename Ac::P> lifted(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    lifted[i] = Ac::Lift(bases[i]);
  }
  Ac::Normalize(lifted, out);
}

// Pippenger over pre-normalized bases[from, to); result stays in accumulator
// form so chunked partials combine without leaving the kernel.
template <PrimeOrderGroup G>
typename G::Accel::P PippengerAccum(
    const std::vector<typename G::Accel::A>& abases,
    const ScalarLimbs& limbs, size_t from, size_t to) {
  using Ac = typename G::Accel;
  size_t max_bits = 0;
  for (size_t i = from; i < to; ++i) {
    max_bits = std::max(max_bits, LimbsBitLength(limbs[i]));
  }
  if (max_bits == 0) {
    return Ac::Identity();
  }
  const size_t w = BestWindow(to - from, max_bits);
  const size_t num_buckets = size_t{1} << w;
  const size_t windows = (max_bits + w - 1) / w;

  std::vector<typename Ac::P> buckets(num_buckets, Ac::Identity());
  std::vector<uint8_t> used(num_buckets);

  typename Ac::P acc = Ac::Identity();
  bool acc_live = false;
  for (size_t win = windows; win-- > 0;) {
    if (acc_live) {
      for (size_t s = 0; s < w; ++s) {
        acc = Ac::Dbl(acc);
      }
    }
    std::fill(used.begin(), used.end(), 0);
    for (size_t i = from; i < to; ++i) {
      uint64_t d = DigitAt(limbs[i], win * w, w);
      if (d == 0) {
        continue;
      }
      // Mixed addition against the normalized base -- the hot line of the
      // whole batch verifier.
      buckets[d] = used[d] ? Ac::AddA(buckets[d], abases[i])
                           : Ac::AddA(Ac::Identity(), abases[i]);
      used[d] = 1;
    }
    // running = sum of buckets [d, top]; each bucket's content is thereby
    // added d times in total across the iterations of window_sum.
    typename Ac::P running = Ac::Identity();
    typename Ac::P window_sum = Ac::Identity();
    bool running_live = false;
    bool sum_live = false;
    for (size_t d = num_buckets; d-- > 1;) {
      if (used[d]) {
        running = running_live ? Ac::Add(running, buckets[d]) : buckets[d];
        running_live = true;
      }
      if (running_live) {
        window_sum = sum_live ? Ac::Add(window_sum, running) : running;
        sum_live = true;
      }
    }
    if (sum_live) {
      acc = acc_live ? Ac::Add(acc, window_sum) : window_sum;
      acc_live = true;
    }
  }
  return acc_live ? acc : Ac::Identity();
}

}  // namespace msm_internal

// Reference implementation: fold of independent exponentiations. The oracle
// every fast path is tested against.
template <PrimeOrderGroup G>
typename G::Element MsmNaive(const std::vector<typename G::Element>& bases,
                             const std::vector<typename G::Scalar>& scalars) {
  if (bases.size() != scalars.size()) {
    throw std::invalid_argument("MsmNaive: size mismatch");
  }
  auto acc = G::Identity();
  for (size_t i = 0; i < bases.size(); ++i) {
    acc = G::Mul(acc, G::Exp(bases[i], scalars[i]));
  }
  return acc;
}

// Windowed-NAF Straus for small batches: one shared doubling chain, per-point
// tables of odd multiples normalized in one batch. Cheap-negate groups fold
// negative digits in place; for the rest they accumulate into a second
// accumulator over the same chain, so the batch needs exactly one group
// inversion at the end (inversion is a full exponentiation for mod-p groups).
template <PrimeOrderGroup G>
typename G::Element MsmWnaf(const std::vector<typename G::Element>& bases,
                            const std::vector<typename G::Scalar>& scalars) {
  namespace mi = msm_internal;
  using Ac = typename G::Accel;
  if (bases.size() != scalars.size()) {
    throw std::invalid_argument("MsmWnaf: size mismatch");
  }
  const size_t n = bases.size();
  constexpr size_t kW = 4;  // digits are odd with |d| < 8: table is 1P, 3P, 5P, 7P
  constexpr size_t kTable = size_t{1} << (kW - 2);

  mi::ScalarLimbs limbs(scalars);
  std::vector<std::vector<int>> nafs(n);
  std::vector<size_t> offset(n, 0);
  std::vector<typename Ac::P> flat;
  size_t max_len = 0;
  for (size_t i = 0; i < n; ++i) {
    nafs[i] = mi::ComputeWnaf(limbs[i], kW);
    max_len = std::max(max_len, nafs[i].size());
    if (!nafs[i].empty()) {
      offset[i] = flat.size();
      typename Ac::P cur = Ac::Lift(bases[i]);
      typename Ac::P twice = Ac::Dbl(cur);
      flat.push_back(cur);
      for (size_t k = 1; k < kTable; ++k) {
        cur = Ac::Add(cur, twice);
        flat.push_back(cur);
      }
    }
  }
  std::vector<typename Ac::A> table;
  Ac::Normalize(flat, &table);

  if constexpr (Ac::kCheapNegate) {
    typename Ac::P acc = Ac::Identity();
    bool live = false;
    for (size_t j = max_len; j-- > 0;) {
      if (live) {
        acc = Ac::Dbl(acc);
      }
      for (size_t i = 0; i < n; ++i) {
        if (j >= nafs[i].size()) {
          continue;
        }
        int d = nafs[i][j];
        if (d > 0) {
          acc = Ac::AddA(acc, table[offset[i] + static_cast<size_t>(d) / 2]);
          live = true;
        } else if (d < 0) {
          acc = Ac::AddA(acc,
                         Ac::NegA(table[offset[i] + static_cast<size_t>(-d) / 2]));
          live = true;
        }
      }
    }
    return Ac::Lower(acc);
  } else {
    typename Ac::P pos = Ac::Identity();
    typename Ac::P neg = Ac::Identity();
    bool pos_live = false;
    bool neg_live = false;
    for (size_t j = max_len; j-- > 0;) {
      if (pos_live) {
        pos = Ac::Dbl(pos);
      }
      if (neg_live) {
        neg = Ac::Dbl(neg);
      }
      for (size_t i = 0; i < n; ++i) {
        if (j >= nafs[i].size()) {
          continue;
        }
        int d = nafs[i][j];
        if (d > 0) {
          pos = Ac::AddA(pos, table[offset[i] + static_cast<size_t>(d) / 2]);
          pos_live = true;
        } else if (d < 0) {
          neg = Ac::AddA(neg, table[offset[i] + static_cast<size_t>(-d) / 2]);
          neg_live = true;
        }
      }
    }
    if (!neg_live) {
      return Ac::Lower(pos);
    }
    return G::Mul(Ac::Lower(pos), G::Inverse(Ac::Lower(neg)));
  }
}

// Pippenger bucket method over bases[from, to). For each w-bit window, points
// land in the bucket of their digit; the window sum is recovered with the
// running-sum trick (2 * 2^w additions, no per-bucket weighting).
template <PrimeOrderGroup G>
typename G::Element MsmPippenger(const std::vector<typename G::Element>& bases,
                                 const std::vector<typename G::Scalar>& scalars, size_t from,
                                 size_t to) {
  using Ac = typename G::Accel;
  std::vector<typename Ac::A> abases;
  msm_internal::NormalizeBases<G>(bases, &abases);
  const msm_internal::ScalarLimbs limbs(scalars);
  return Ac::Lower(msm_internal::PippengerAccum<G>(abases, limbs, from, to));
}

// prod_i bases[i]^scalars[i]. Dispatches between the windowed-NAF and
// Pippenger paths; large batches shard across the pool (chunked partial MSMs,
// combined with one add per chunk). Must not be called from inside a pool
// task (ParallelFor does not nest).
template <PrimeOrderGroup G>
typename G::Element Msm(const std::vector<typename G::Element>& bases,
                        const std::vector<typename G::Scalar>& scalars,
                        ThreadPool* pool = nullptr) {
  namespace mi = msm_internal;
  using Ac = typename G::Accel;
  if (bases.size() != scalars.size()) {
    throw std::invalid_argument("Msm: size mismatch");
  }
  const size_t n = bases.size();
  if (n == 0) {
    return G::Identity();
  }
  obs::GlobalCounter(obs::kMsmCalls)->Increment();
  obs::GlobalCounter(obs::kMsmScalars)->Add(n);
  constexpr size_t kPippengerThreshold = 128;
  if (n < kPippengerThreshold) {
    return MsmWnaf<G>(bases, scalars);
  }

  const mi::ScalarLimbs limbs(scalars);
  // One batch normalization for the whole set, shared by every chunk.
  std::vector<typename Ac::A> abases;
  mi::NormalizeBases<G>(bases, &abases);

  const size_t workers = (pool != nullptr) ? pool->worker_count() : 1;
  const size_t chunks = std::min(workers, n / kPippengerThreshold);
  if (chunks <= 1) {
    return Ac::Lower(mi::PippengerAccum<G>(abases, limbs, 0, n));
  }
  std::vector<typename Ac::P> partial(chunks, Ac::Identity());
  pool->ParallelFor(chunks, [&](size_t c) {
    size_t from = n * c / chunks;
    size_t to = n * (c + 1) / chunks;
    partial[c] = mi::PippengerAccum<G>(abases, limbs, from, to);
  });
  auto acc = partial[0];
  for (size_t c = 1; c < chunks; ++c) {
    acc = Ac::Add(acc, partial[c]);
  }
  return Ac::Lower(acc);
}

// prod_j tables[j]^fixed_scalars[j] * prod_i bases[i]^scalars[i]: the
// fixed-base fast path. Generator terms (every batch verifier has a g^a h^b
// component) go through the shared comb tables instead of occupying MSM
// slots, and the partial products merge in accumulator form.
template <PrimeOrderGroup G>
typename G::Element MsmWithFixedTerms(
    const std::vector<std::pair<const FixedBaseTable<G>*, typename G::Scalar>>& fixed,
    const std::vector<typename G::Element>& bases,
    const std::vector<typename G::Scalar>& scalars,
    ThreadPool* pool = nullptr) {
  using Ac = typename G::Accel;
  typename Ac::P acc = Ac::Identity();
  for (const auto& term : fixed) {
    acc = Ac::Add(acc, term.first->ExpAccum(term.second));
  }
  if (!bases.empty()) {
    acc = Ac::Add(acc, Ac::Lift(Msm<G>(bases, scalars, pool)));
  }
  return Ac::Lower(acc);
}

}  // namespace vdp

#endif  // SRC_BATCH_MSM_H_
