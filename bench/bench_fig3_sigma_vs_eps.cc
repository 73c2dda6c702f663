// Figure 3: latency of creating and validating the Sigma-OR proofs as a
// function of the privacy parameter eps.
//
// nb is proportional to 1/eps^2 (Lemma 2.1) and proof cost is linear in nb,
// so halving eps quadruples both proving and verification time. The paper
// plots this for its two group instantiations; we sweep both of ours
// (Schnorr Z_p* subgroup and Edwards25519) plus a full-strength 2048-bit set.
#include <cstdio>

#include "src/common/timer.h"
#include "src/core/coins.h"
#include "src/dp/binomial.h"

namespace {

constexpr double kDelta = 1.0 / 1024;  // 2^-10 as in Table 1

template <typename G>
void SweepGroup(size_t sample_cap) {
  vdp::Pedersen<G> ped;
  vdp::SecureRng rng("fig3-" + G::Name());
  vdp::ThreadPool pool;

  std::printf("\n[%s]\n", G::Name().c_str());
  std::printf("%8s %10s %16s %16s %18s %18s\n", "eps", "nb", "prove/coin (us)",
              "verify/coin (us)", "total prove (ms)", "total verify (ms)");

  for (double eps : {2.0, 1.5, 1.0, 0.75, 0.5, 0.25}) {
    uint64_t nb = vdp::NumCoinsForPrivacy(eps, kDelta);
    size_t sample = static_cast<size_t>(std::min<uint64_t>(nb, sample_cap));

    // Proving is the round's Lines 4-6 (CommitCoinBatch): draw, commit and
    // prove; verifying is the paper's per-proof check.
    vdp::Stopwatch timer;
    vdp::CoinBatch<G> coins = vdp::CommitCoinBatch(ped, sample, rng, "fig3", &pool);
    double prove_us = timer.ElapsedMicros() / static_cast<double>(sample);
    timer.Reset();
    bool ok = vdp::OrVerifyBatch(ped, coins.commitments, coins.proofs, "fig3", &pool);
    double verify_us = timer.ElapsedMicros() / static_cast<double>(sample);
    if (!ok) {
      std::fprintf(stderr, "FATAL: verification failed\n");
      std::exit(1);
    }
    std::printf("%8.2f %10llu %16.1f %16.1f %18.1f %18.1f\n", eps,
                static_cast<unsigned long long>(nb), prove_us, verify_us,
                prove_us * static_cast<double>(nb) / 1000.0,
                verify_us * static_cast<double>(nb) / 1000.0);
  }
}

}  // namespace

int main() {
  std::printf("Figure 3 reproduction: Sigma-OR proof cost vs privacy parameter eps\n");
  std::printf("delta = 2^-10; nb(eps) = ceil(100 ln(2/delta)/eps^2); totals = per-coin x nb\n");
  std::printf("expected shape: time ~ 1/eps^2 (quadrupling when eps halves)\n");

  SweepGroup<vdp::Schnorr512>(/*sample_cap=*/192);
  SweepGroup<vdp::ModP512>(/*sample_cap=*/192);
  SweepGroup<vdp::Ed25519Group>(/*sample_cap=*/128);
  SweepGroup<vdp::Schnorr2048>(/*sample_cap=*/32);
  SweepGroup<vdp::ModP2048>(/*sample_cap=*/16);

  std::printf("\nnote: per-coin cost is eps-independent; the 1/eps^2 shape comes entirely\n");
  std::printf("from nb, matching the paper's Figure 3 discussion.\n");
  return 0;
}
