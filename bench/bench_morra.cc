// Morra cost (the Table 1 "Morra" column, isolated) and the
// commitment-scheme ablation: Algorithm 1 verbatim commits to every coin
// with Pedersen; a seed-based variant commits once per party with a hash
// commitment and expands with ChaCha20 -- same one-honest-party trust model,
// orders of magnitude cheaper. K sweeps show the linear cost in party count.
// Pedersen Morra runs as the protocol runs it: commitments and the per-party
// RLC opening checks on a 2-worker pool.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "src/group/ed25519.h"
#include "src/morra/morra.h"

namespace {

template <typename G>
void BM_PedersenMorra(benchmark::State& state) {
  const size_t num_parties = static_cast<size_t>(state.range(0));
  const size_t num_coins = static_cast<size_t>(state.range(1));
  vdp::Pedersen<G> ped;
  vdp::ThreadPool pool(2);

  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<vdp::MorraParty<G>>> owned;
    std::vector<vdp::MorraParty<G>*> parties;
    for (size_t i = 0; i < num_parties; ++i) {
      owned.push_back(
          std::make_unique<vdp::MorraParty<G>>(vdp::SecureRng("m" + std::to_string(i))));
      parties.push_back(owned.back().get());
    }
    state.ResumeTiming();
    auto outcome = vdp::RunMorra(parties, num_coins, ped, &pool);
    benchmark::DoNotOptimize(outcome);
    if (outcome.aborted) {
      // Honest parties never abort; fail the process, not just the row, so
      // a smoke run gates on the exit status.
      std::fprintf(stderr, "FATAL: morra aborted\n");
      std::exit(1);
    }
  }
  state.counters["us_per_coin"] = benchmark::Counter(
      static_cast<double>(num_coins) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SeedMorra(benchmark::State& state) {
  const size_t num_parties = static_cast<size_t>(state.range(0));
  const size_t num_coins = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<vdp::SeedMorraParty> parties;
    for (size_t i = 0; i < num_parties; ++i) {
      parties.push_back(
          vdp::SeedMorraParty{vdp::SecureRng("s" + std::to_string(i)), false, false});
    }
    state.ResumeTiming();
    auto outcome = vdp::RunSeedMorra(parties, num_coins);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["us_per_coin"] = benchmark::Counter(
      static_cast<double>(num_coins) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

}  // namespace

BENCHMARK(BM_PedersenMorra<vdp::ModP512>)
    ->Args({2, 256})
    ->Args({3, 256})
    ->Args({5, 256})
    ->Args({2, 1024})
    ->Unit(benchmark::kMillisecond);

// One `noise` prover's coins in vdpbench: M = 4 bins of nb = 763.
BENCHMARK(BM_PedersenMorra<vdp::Ed25519Group>)
    ->Args({2, 3052})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SeedMorra)
    ->Args({2, 1024})
    ->Args({3, 1024})
    ->Args({5, 1024})
    ->Args({2, 262144})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
