// Miller-Rabin primality testing and safe-prime generation.
//
// Used by tools/gen_params to produce the Z_p* group parameters and by tests
// to revalidate the hard-coded ones.
#ifndef SRC_MATH_PRIMALITY_H_
#define SRC_MATH_PRIMALITY_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/group/modp_params.h"
#include "src/math/montgomery.h"

namespace vdp {

namespace internal {

// Primes below 8000 for candidate sieving.
inline const std::vector<uint32_t>& SmallPrimes() {
  static const std::vector<uint32_t> primes = [] {
    std::vector<uint32_t> out;
    std::vector<bool> sieve(8000, true);
    for (uint32_t i = 2; i < sieve.size(); ++i) {
      if (sieve[i]) {
        out.push_back(i);
        for (uint32_t j = 2 * i; j < sieve.size(); j += i) {
          sieve[j] = false;
        }
      }
    }
    return out;
  }();
  return primes;
}

template <size_t L>
uint64_t ModSmall(const BigInt<L>& n, uint64_t d) {
  uint128_t rem = 0;
  for (size_t i = L; i-- > 0;) {
    rem = ((rem << 64) | n.limb[i]) % d;
  }
  return static_cast<uint64_t>(rem);
}

}  // namespace internal

// Uniform BigInt in [0, bound) by rejection sampling.
template <size_t L>
BigInt<L> RandomBelow(const BigInt<L>& bound, SecureRng& rng) {
  size_t bits = bound.BitLength();
  size_t bytes = (bits + 7) / 8;
  uint8_t mask = static_cast<uint8_t>(0xff >> (8 * bytes - bits));
  for (;;) {
    Bytes raw = rng.RandomBytes(bytes);
    raw[0] &= mask;
    auto candidate = BigInt<L>::FromBytesBe(raw);
    if (candidate.has_value() && *candidate < bound) {
      return *candidate;
    }
  }
}

// Miller-Rabin with `rounds` random bases. Error probability <= 4^-rounds for
// composite n. n must be odd and > 3 (small cases are handled directly).
template <size_t L>
bool IsProbablePrime(const BigInt<L>& n, int rounds, SecureRng& rng) {
  if (n.BitLength() <= 1) {
    return false;  // 0, 1
  }
  for (uint32_t p : internal::SmallPrimes()) {
    BigInt<L> small = BigInt<L>::FromU64(p);
    if (n == small) {
      return true;
    }
    if (internal::ModSmall(n, p) == 0) {
      return false;
    }
  }
  if (!n.IsOdd()) {
    return false;
  }

  // n - 1 = d * 2^s with d odd.
  BigInt<L> n_minus_1;
  BigInt<L>::SubInto(n_minus_1, n, BigInt<L>::One());
  BigInt<L> d = n_minus_1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d.ShiftRight1();
    ++s;
  }

  MontgomeryCtx<L> ctx(n);
  BigInt<L> two = BigInt<L>::FromU64(2);
  BigInt<L> n_minus_2;
  BigInt<L>::SubInto(n_minus_2, n, two);

  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    BigInt<L> a = AddMod(RandomBelow(n_minus_2, rng), BigInt<L>::One(), n);
    if (a < two) {
      a = two;
    }
    BigInt<L> x = ctx.ExpMod(a, d);
    if (x == BigInt<L>::One() || x == n_minus_1) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < s; ++i) {
      x = ctx.MulMod(x, x);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

// True if p and (p-1)/2 are both (probable) primes.
template <size_t L>
bool IsSafePrime(const BigInt<L>& p, int rounds, SecureRng& rng) {
  if (!p.IsOdd()) {
    return false;
  }
  BigInt<L> q = p;
  BigInt<L>::SubInto(q, q, BigInt<L>::One());
  q.ShiftRight1();
  return IsProbablePrime(q, rounds, rng) && IsProbablePrime(p, rounds, rng);
}

// Generates a safe prime p = 2q + 1 with exactly `bits` bits (bits <= 64L).
// Sieves q and p simultaneously before running Miller-Rabin.
template <size_t L>
BigInt<L> GenerateSafePrime(size_t bits, SecureRng& rng) {
  for (;;) {
    // Random odd q with exactly bits-1 bits.
    size_t qbits = bits - 1;
    Bytes raw = rng.RandomBytes((qbits + 7) / 8);
    auto q_opt = BigInt<L>::FromBytesBe(raw);
    BigInt<L> q = *q_opt;
    // Clamp to exactly qbits bits and make odd, q = 3 mod 4 so p = 7 mod 8.
    for (size_t i = qbits; i < 64 * L; ++i) {
      q.limb[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
    q.SetBit(qbits - 1);
    q.limb[0] |= 3;

    // Scan a window of candidates q += 4 to amortize setup.
    for (int step = 0; step < 2048; ++step) {
      bool divisible = false;
      for (uint32_t sp : internal::SmallPrimes()) {
        uint64_t rq = internal::ModSmall(q, sp);
        // q % sp == 0 or p = 2q+1 % sp == 0
        if (rq == 0 || (2 * rq + 1) % sp == 0) {
          divisible = true;
          break;
        }
      }
      if (!divisible) {
        if (IsProbablePrime(q, 2, rng)) {
          BigInt<L> p = q;
          p.ShiftLeft1();
          BigInt<L>::AddInto(p, p, BigInt<L>::One());
          if (IsProbablePrime(p, 2, rng) && IsProbablePrime(q, 24, rng) &&
              IsProbablePrime(p, 24, rng)) {
            return p;
          }
        }
      }
      BigInt<L> four = BigInt<L>::FromU64(4);
      BigInt<L>::AddInto(q, q, four);
      if (q.BitLength() != qbits) {
        break;  // wrapped past the target size; draw a fresh start
      }
    }
  }
}

// DSA/Schnorr-style group generation: prime p with a prime subgroup of order
// q where q has exactly `qbits` (at most 256) bits and p has exactly `pbits`.
// Exponents in such a group are q-sized (short), which is how production
// finite-field deployments keep exponentiation fast at large p. Fills p, q,
// cofactor and g; the name and hash domain are left empty.
template <size_t L>
ModPParams<L, 4> GenerateSchnorrGroup(size_t pbits, size_t qbits, SecureRng& rng) {
  ModPParams<L, 4> params;
  // One prime q for the whole search.
  for (;;) {
    Bytes raw = rng.RandomBytes((qbits + 7) / 8);
    BigInt<4> q = *BigInt<4>::FromBytesBe(raw);
    for (size_t i = qbits; i < 256; ++i) {
      q.limb[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
    q.SetBit(qbits - 1);
    q.limb[0] |= 1;
    if (IsProbablePrime(q, 24, rng)) {
      params.q = q;
      break;
    }
  }

  // Search p = q * k + 1 with k even and p exactly pbits long.
  const size_t kbits = pbits - qbits;
  for (;;) {
    Bytes raw = rng.RandomBytes((kbits + 7) / 8);
    BigInt<L> k = *BigInt<L>::FromBytesBe(raw);
    for (size_t i = kbits; i < 64 * L; ++i) {
      k.limb[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
    k.SetBit(kbits - 1);
    k.limb[0] &= ~uint64_t{1};  // even
    if (k.IsZero()) {
      continue;
    }
    BigInt<L> q_wide = params.q.template Resize<L>();
    BigInt<2 * L> product = Mul(q_wide, k);
    BigInt<L> p = product.template Resize<L>();
    // Reject if the product overflowed L limbs (it cannot for our sizes).
    BigInt<L>::AddInto(p, p, BigInt<L>::One());
    if (p.BitLength() != pbits) {
      continue;
    }
    bool divisible = false;
    for (uint32_t sp : internal::SmallPrimes()) {
      if (internal::ModSmall(p, sp) == 0) {
        divisible = true;
        break;
      }
    }
    if (divisible || !IsProbablePrime(p, 2, rng) || !IsProbablePrime(p, 24, rng)) {
      continue;
    }
    params.p = p;
    params.cofactor = k;
    break;
  }

  // Generator: smallest h with h^cofactor != 1.
  MontgomeryCtx<L> ctx(params.p);
  for (uint64_t h = 2;; ++h) {
    BigInt<L> candidate = ctx.ExpMod(BigInt<L>::FromU64(h), params.cofactor);
    if (candidate != BigInt<L>::One()) {
      params.g = candidate;
      break;
    }
  }
  return params;
}

}  // namespace vdp

#endif  // SRC_MATH_PRIMALITY_H_
