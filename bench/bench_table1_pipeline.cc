// Table 1: latency of each stage of Pi_Bin for a single-dimension counting
// query.
//
// Paper setting: n = 10^6 clients, delta = 2^-10, nb = 262144 private coins,
// 8-core Apple M1, Gq in Z_p* (256-bit exponents). Paper numbers (ms):
//   Sigma-proof 6609 | Sigma-verification 6708 | Morra 4987 | Aggregation 198
//   | Check 263
//
// At the paper's full size the full-strength set takes minutes, so we measure
// scaled runs and print the extrapolation to the paper's (n, nb) next to the
// paper's numbers. Two parameter sets:
//   schnorr-2048-q256 -- full-strength, the configuration the paper's 35us
//                        exponentiation implies;
//   modp-512          -- a fast safe-prime set for quick comparisons.
// Set VDP_BENCH_FULL=1 to run modp-512 at the complete nb = 262144.
//
// The coin stages call the round's own code (src/core/coins.h): Sigma-proof
// times CommitCoinBatch (Lines 4-6), Aggregation sums the clients and runs
// FoldCoins (Lines 10-11), and Check multiplies the client commitments and
// runs CheckFinalBin (Eq. 10), as Prover and PublicVerifier do. Only
// Sigma-verification keeps the paper's per-proof OrVerifyBatch; the round
// itself checks coin proofs with one RLC batch. The bench exits 1 when a
// proof batch, Morra or Eq. 10 fails.
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/common/timer.h"
#include "src/core/coins.h"
#include "src/dp/binomial.h"
#include "src/morra/morra.h"

namespace {

constexpr size_t kPaperCoins = 262144;
constexpr size_t kPaperClients = 1000000;

struct Row {
  double sigma_prove_ms;
  double sigma_verify_ms;
  double morra_ms;
  double aggregate_ms;
  double check_ms;
};

template <typename G>
Row RunPipeline(size_t num_clients, size_t nb, vdp::ThreadPool& pool) {
  using S = typename G::Scalar;
  vdp::Pedersen<G> ped;
  vdp::SecureRng rng("table1-" + G::Name());
  Row row{};
  vdp::Stopwatch timer;

  std::vector<S> values(num_clients);
  std::vector<S> randomness(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    values[i] = S::FromU64(i % 2);
    randomness[i] = S::Random(rng);
  }
  std::vector<typename G::Element> client_commitments(num_clients);
  pool.ParallelFor(num_clients, [&](size_t i) {
    client_commitments[i] = ped.Commit(values[i], randomness[i]);
  });

  // --- Sigma-proof (Lines 4-6: draw, commit and prove the coins) ----------
  timer.Reset();
  vdp::CoinBatch<G> coins = vdp::CommitCoinBatch(ped, nb, rng, "t1", &pool);
  row.sigma_prove_ms = timer.ElapsedMillis();

  // --- Sigma-verification (the paper's per-proof check) --------------------
  timer.Reset();
  bool ok = vdp::OrVerifyBatch(ped, coins.commitments, coins.proofs, "t1", &pool);
  row.sigma_verify_ms = timer.ElapsedMillis();
  if (!ok) {
    std::fprintf(stderr, "FATAL: proofs failed\n");
    std::exit(1);
  }

  // --- Morra ---------------------------------------------------------------
  timer.Reset();
  vdp::MorraParty<G> prover_party(rng.Fork("morra-p"));
  vdp::MorraParty<G> verifier_party(rng.Fork("morra-v"));
  std::vector<vdp::MorraParty<G>*> parties = {&prover_party, &verifier_party};
  auto outcome = vdp::RunMorra(parties, nb, ped, &pool);
  row.morra_ms = timer.ElapsedMillis();
  if (outcome.aborted) {
    std::fprintf(stderr, "FATAL: morra aborted\n");
    std::exit(1);
  }

  // --- Aggregation (Lines 10-11) ------------------------------------------
  timer.Reset();
  S y = S::Zero();
  S z = S::Zero();
  for (size_t i = 0; i < num_clients; ++i) {
    y += values[i];
    z += randomness[i];
  }
  vdp::FoldCoins(coins.bits, coins.randomness, outcome.coins, &y, &z);
  row.aggregate_ms = timer.ElapsedMillis();

  // --- Check (Lines 12-13, Eq. 10) ------------------------------------------
  timer.Reset();
  auto client_product = G::Identity();
  for (size_t i = 0; i < num_clients; ++i) {
    client_product = G::Mul(client_product, client_commitments[i]);
  }
  bool check = vdp::CheckFinalBin(ped, client_product, coins.commitments, outcome.coins, y, z);
  row.check_ms = timer.ElapsedMillis();
  if (!check) {
    std::fprintf(stderr, "FATAL: final check failed\n");
    std::exit(1);
  }
  return row;
}

void PrintTable(const char* group, const Row& row, size_t n, size_t nb) {
  double coin_scale = static_cast<double>(kPaperCoins) / static_cast<double>(nb);
  double client_scale = static_cast<double>(kPaperClients) / static_cast<double>(n);
  std::printf("\n[%s]  measured at n = %zu, nb = %zu\n", group, n, nb);
  std::printf("%-20s %14s %20s %12s\n", "stage", "measured (ms)", "extrapolated (ms)",
              "paper (ms)");
  std::printf("%-20s %14.1f %20.1f %12s\n", "Sigma-proof", row.sigma_prove_ms,
              row.sigma_prove_ms * coin_scale, "6609");
  std::printf("%-20s %14.1f %20.1f %12s\n", "Sigma-verification", row.sigma_verify_ms,
              row.sigma_verify_ms * coin_scale, "6708");
  std::printf("%-20s %14.1f %20.1f %12s\n", "Morra", row.morra_ms, row.morra_ms * coin_scale,
              "4987");
  std::printf("%-20s %14.1f %20.1f %12s\n", "Aggregation", row.aggregate_ms,
              row.aggregate_ms * client_scale, "198");
  std::printf("%-20s %14.1f %20.1f %12s\n", "Check", row.check_ms, row.check_ms * client_scale,
              "263");
  std::printf("shape: prove~verify ratio %.2f (paper 1.01); sigma/morra ratio %.2f (paper "
              "1.33)\n",
              row.sigma_verify_ms / row.sigma_prove_ms, row.sigma_prove_ms / row.morra_ms);
}

}  // namespace

int main() {
  const bool full = std::getenv("VDP_BENCH_FULL") != nullptr;
  std::printf("Table 1 reproduction: Pi_Bin stage latencies\n");
  std::printf("paper: n = %zu clients, nb = %zu coins, 8-core M1; this machine: %u threads,\n",
              kPaperClients, kPaperCoins, std::thread::hardware_concurrency());
  std::printf("portable C++. Extrapolation: coin stages scale by nb, client stages by n.\n");

  vdp::ThreadPool pool;
  {
    size_t nb = full ? kPaperCoins : 2048;
    Row row = RunPipeline<vdp::ModP512>(kPaperClients, nb, pool);
    PrintTable("modp-512 (fast safe-prime set)", row, kPaperClients, nb);
  }
  {
    size_t n = 50000;
    size_t nb = 192;
    Row row = RunPipeline<vdp::Schnorr2048>(n, nb, pool);
    PrintTable("schnorr-2048-q256 (full strength)", row, n, nb);
  }
  return 0;
}
