// Group-operation microbenchmarks across every registered group: the raw
// costs the protocol layers are built on. For each group: generic Exp,
// comb fixed-base Exp (the Pedersen/verifier path) with its window and table
// size, wNAF and Pippenger MSM per-term cost, plain group Mul, (batch)
// encoding, strict Decode of a member encoding (the public auditor's
// per-element cost) one at a time and in ElementBlobs' chunks, the field
// square root inside that decode and the (p-5)/8 power behind it, one chain
// at a time and in PowP58Batch, the client's
// OR proof per secret bit, one OR proof's Fiat-Shamir challenge
// (OrChallenge), and the wide reduction behind every challenge. Top-level
// fields give SHA-256 throughput and the block function this CPU selected
// (sha-ni or portable), and the PowP58Batch kernel it selected (ifma8 or
// portable4), so an artifact names the paths it measured. One table makes the comb and kernel speedups visible per group,
// and the committed BENCH_group_ops.json baseline plus the CI artifact keep
// them trended.
//
// Usage: bench_group_ops [out.json]   (default BENCH_group_ops.json)
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/batch/msm.h"
#include "src/commit/pedersen.h"
#include "src/common/sha256.h"
#include "src/common/timer.h"
#include "src/group/fixed_base.h"
#include "src/group/registry.h"
#include "src/sigma/or_proof.h"

namespace {

// Reps scaled so slow groups (2048-bit exponentiations are milliseconds)
// don't blow up the wall clock while fast groups still measure cleanly.
size_t RepsFor(size_t order_bits) {
  if (order_bits <= 320) {
    return 400;
  }
  if (order_bits <= 600) {
    return 100;
  }
  if (order_bits <= 1100) {
    return 30;
  }
  return 10;
}

struct GroupRow {
  std::string group;
  size_t order_bits = 0;
  double exp_generic_us = 0;
  double exp_comb_us = 0;
  double table_build_ms = 0;
  size_t comb_window = 0;
  double comb_table_kb = 0;
  double msm_wnaf_per_term_us = 0;       // n = 32
  double msm_pippenger_per_term_us = 0;  // n = 512
  double mul_us = 0;
  double encode_us = 0;
  double encode_batch_us = 0;  // per element, batch of 256
  double decode_us = 0;        // strict Decode (range + subgroup) of a member
  double decode_batch_us = 0;  // the same per element, via ElementBlobs::Decode
  double sqrt_us = -1;         // field square root in Decode; < 0: none
  double powp58_us = -1;       // one Fe25519::PowP58 chain; < 0: none
  double powp58_batch_us = -1;  // per element of a PowP58Batch of 256
  double or_prove_us[2] = {0, 0};  // OrProve of a bit-0 / bit-1 commitment
  double or_challenge_us = 0;      // OrChallenge from encoded (c, a0, a1)
  double scalar_wide_us = 0;       // FromBytesWide of a 32-byte digest
};

// SHA-256 throughput over a 1 MiB buffer, hashed whole. Prints it with a
// byte of every digest folded together, so the hashing stays live.
double Sha256MbPerSecond(const char* impl) {
  const vdp::Bytes data(1 << 20, 0x5a);
  const int reps = 32;
  uint8_t fold = 0;
  vdp::Stopwatch timer;
  for (int i = 0; i < reps; ++i) {
    fold = static_cast<uint8_t>(fold ^ vdp::Sha256::Hash(data)[0]);
  }
  const double mb_s = reps * (data.size() / 1e6) / (timer.ElapsedMillis() / 1000.0);
  std::printf("sha256: %s, %.1f MB/s (digest fold %02x)\n", impl, mb_s, fold);
  return mb_s;
}

// A column only some groups have: `none` when the value is negative.
std::string Optional(double us, const char* none, int decimals) {
  if (us < 0) {
    return none;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, us);
  return buf;
}

template <vdp::PrimeOrderGroup G>
GroupRow Measure() {
  using S = typename G::Scalar;
  GroupRow row;
  row.group = G::Name();
  row.order_bits = S::Order().BitLength();
  const size_t reps = RepsFor(row.order_bits);

  vdp::SecureRng rng("bench-group-ops-" + G::Name());
  const auto gen = G::Generator();
  std::vector<S> scalars(reps);
  for (auto& s : scalars) {
    s = S::Random(rng);
  }

  vdp::Stopwatch timer;
  auto sink = G::Identity();

  timer.Reset();
  for (size_t i = 0; i < reps; ++i) {
    sink = G::Mul(sink, G::Exp(gen, scalars[i]));
  }
  row.exp_generic_us = timer.ElapsedMillis() * 1000.0 / reps;

  timer.Reset();
  vdp::FixedBaseTable<G> table(gen);
  row.table_build_ms = timer.ElapsedMillis();
  row.comb_window = table.window();
  row.comb_table_kb = static_cast<double>(table.table_bytes()) / 1000.0;

  timer.Reset();
  for (size_t i = 0; i < reps; ++i) {
    sink = G::Mul(sink, table.Exp(scalars[i]));
  }
  row.exp_comb_us = timer.ElapsedMillis() * 1000.0 / reps;

  // MSM per-term costs on realistic batch shapes.
  const size_t wnaf_n = 32;
  const size_t pip_n = row.order_bits <= 600 ? 512 : 128;
  std::vector<typename G::Element> bases;
  std::vector<S> msm_scalars;
  for (size_t i = 0; i < pip_n; ++i) {
    bases.push_back(G::Exp(gen, S::Random(rng)));
    msm_scalars.push_back(S::Random(rng));
  }
  std::vector<typename G::Element> wnaf_bases(bases.begin(), bases.begin() + wnaf_n);
  std::vector<S> wnaf_scalars(msm_scalars.begin(), msm_scalars.begin() + wnaf_n);

  const size_t msm_reps = reps / 10 + 1;
  timer.Reset();
  for (size_t r = 0; r < msm_reps; ++r) {
    sink = G::Mul(sink, vdp::MsmWnaf<G>(wnaf_bases, wnaf_scalars));
  }
  row.msm_wnaf_per_term_us = timer.ElapsedMillis() * 1000.0 / (msm_reps * wnaf_n);

  timer.Reset();
  for (size_t r = 0; r < msm_reps; ++r) {
    sink = G::Mul(sink, vdp::MsmPippenger<G>(bases, msm_scalars, 0, pip_n));
  }
  row.msm_pippenger_per_term_us = timer.ElapsedMillis() * 1000.0 / (msm_reps * pip_n);

  const size_t mul_reps = reps * 20;
  timer.Reset();
  for (size_t i = 0; i < mul_reps; ++i) {
    sink = G::Mul(sink, gen);
  }
  row.mul_us = timer.ElapsedMillis() * 1000.0 / mul_reps;

  timer.Reset();
  size_t enc_bytes = 0;
  for (size_t i = 0; i < reps; ++i) {
    enc_bytes += G::Encode(bases[i % bases.size()]).size();
  }
  row.encode_us = timer.ElapsedMillis() * 1000.0 / reps;

  std::vector<typename G::Element> batch(bases.begin(),
                                         bases.begin() + std::min<size_t>(256, bases.size()));
  timer.Reset();
  auto encoded = vdp::EncodeAll<G>(batch);
  row.encode_batch_us = timer.ElapsedMillis() * 1000.0 / batch.size();
  enc_bytes += encoded.size();

  timer.Reset();
  size_t decoded = 0;
  for (size_t i = 0; i < reps; ++i) {
    decoded += G::Decode(encoded[i % encoded.size()]).has_value() ? 1 : 0;
  }
  row.decode_us = timer.ElapsedMillis() * 1000.0 / reps;

  // The bulk decoder's path, inline on this thread: chunks of
  // ElementBlobs::kDecodeChunk entries through G::DecodeBatch.
  std::vector<typename G::Element> slots(reps);
  vdp::ElementBlobs<G> blobs;
  for (size_t i = 0; i < reps; ++i) {
    blobs.Add(encoded[i % encoded.size()], &slots[i]);
  }
  timer.Reset();
  decoded += blobs.Decode(/*pool=*/nullptr) ? 1 : 0;
  row.decode_batch_us = timer.ElapsedMillis() * 1000.0 / reps;

  // Only ed25519's Decode takes a square root (decompression); mod-p and
  // Schnorr elements are checked by e^q == 1, which exp_generic_us covers.
  if constexpr (std::is_same_v<G, vdp::Ed25519Group>) {
    std::vector<vdp::Fe25519> squares;
    for (size_t i = 0; i < 64; ++i) {
      auto enc = vdp::Fe25519::FromBytes(rng.RandomBytes(32));
      if (enc.has_value()) {
        squares.push_back(vdp::Fe25519::Square(*enc));
      }
    }
    timer.Reset();
    for (size_t i = 0; i < reps; ++i) {
      decoded += squares[i % squares.size()].Sqrt().has_value() ? 1 : 0;
    }
    row.sqrt_us = timer.ElapsedMillis() * 1000.0 / reps;

    std::vector<vdp::Fe25519> powers(256);
    for (size_t i = 0; i < powers.size(); ++i) {
      powers[i] = squares[i % squares.size()];
    }
    timer.Reset();
    for (size_t i = 0; i < reps; ++i) {
      powers[i % powers.size()] = powers[i % powers.size()].PowP58();
    }
    row.powp58_us = timer.ElapsedMillis() * 1000.0 / reps;
    const size_t batch_reps = reps / powers.size() + 1;
    timer.Reset();
    for (size_t r = 0; r < batch_reps; ++r) {
      vdp::Fe25519::PowP58Batch(powers.data(), powers.data(), powers.size());
    }
    row.powp58_batch_us = timer.ElapsedMillis() * 1000.0 / (batch_reps * powers.size());
    decoded += powers[0].IsZero() ? 0 : 1;
  }

  // The client's OR proof for each secret bit: both run one ExpH and one
  // Commit, so the two columns should agree.
  vdp::Pedersen<G> ped;
  size_t proved = 0;
  for (int bit : {0, 1}) {
    const S r = S::Random(rng);
    const auto c = ped.Commit(S::FromU64(static_cast<uint64_t>(bit)), r);
    timer.Reset();
    for (size_t i = 0; i < reps; ++i) {
      proved += vdp::OrProve(ped, c, bit, r, rng, "bench").z0.IsZero() ? 0 : 1;
    }
    row.or_prove_us[bit] = timer.ElapsedMillis() * 1000.0 / reps;
  }

  // One challenge as the batch verifier derives it: encoded first messages
  // and a per-proof context.
  const auto c = ped.Commit(S::One(), S::Random(rng));
  const auto enc = vdp::EncodeAll<G>({c, G::Exp(gen, S::Random(rng)), G::Exp(gen, S::Random(rng))});
  const std::string context = "bench/client/1234/bin/7";
  const size_t challenge_reps = reps * 10;
  auto challenge_sink = S::Zero();
  timer.Reset();
  for (size_t i = 0; i < challenge_reps; ++i) {
    challenge_sink += vdp::OrChallenge(ped, enc[0], enc[1], enc[2], context);
  }
  row.or_challenge_us = timer.ElapsedMillis() * 1000.0 / challenge_reps;

  const size_t wide_reps = reps * 20;
  const vdp::Bytes digest = rng.RandomBytes(32);
  auto wide_sink = S::Zero();
  timer.Reset();
  for (size_t i = 0; i < wide_reps; ++i) {
    wide_sink += S::FromBytesWide(digest);
  }
  row.scalar_wide_us = timer.ElapsedMillis() * 1000.0 / wide_reps;

  // Keep the accumulators alive so nothing is optimized away.
  if (G::Encode(sink).empty() || enc_bytes == 0 || decoded == 0 || proved == 0 ||
      wide_sink.Encode().empty() || challenge_sink.Encode().empty()) {
    std::fprintf(stderr, "impossible: empty encoding\n");
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_group_ops.json";
  std::vector<GroupRow> rows;
  const char* sha256_impl = vdp::sha256_internal::HasShaNi() ? "sha-ni" : "portable";
  const double sha256_mb_s = Sha256MbPerSecond(sha256_impl);
  const char* field_kernel = vdp::fe25519_internal::BatchKernelName();
  std::printf("field_kernel: %s", field_kernel);
  if (const char* missing = vdp::fe25519_internal::MissingIfmaFeature()) {
    std::printf(" (no ifma8: this CPU or OS lacks %s)", missing);
  }
  std::printf("\n");
  vdp::ForEachRegisteredGroup([&](auto tag) {
    using G = typename decltype(tag)::Group;
    std::printf("measuring %s...\n", G::Name().c_str());
    rows.push_back(Measure<G>());
  });

  std::printf("\n%-18s %6s %12s %12s %4s %9s %12s %12s %10s %10s %10s %10s %10s %10s %10s %10s "
              "%10s %10s %10s %10s\n",
              "group", "bits", "exp(us)", "comb(us)", "w", "tab(KB)", "wnaf/t(us)", "pip/t(us)",
              "mul(us)", "enc(us)", "encB(us)", "dec(us)", "decB(us)", "or0(us)", "or1(us)",
              "orFS(us)", "wide(us)", "sqrt(us)", "p58(us)", "p58B(us)");
  for (const auto& r : rows) {
    std::printf("%-18s %6zu %12.2f %12.2f %4zu %9.1f %12.2f %12.2f %10.3f %10.3f %10.3f %10.2f "
                "%10.2f ",
                r.group.c_str(), r.order_bits, r.exp_generic_us, r.exp_comb_us, r.comb_window,
                r.comb_table_kb, r.msm_wnaf_per_term_us, r.msm_pippenger_per_term_us, r.mul_us,
                r.encode_us, r.encode_batch_us, r.decode_us, r.decode_batch_us);
    std::printf("%10.2f %10.2f %10.3f %10.3f %10s %10s %10s\n", r.or_prove_us[0],
                r.or_prove_us[1], r.or_challenge_us, r.scalar_wide_us,
                Optional(r.sqrt_us, "-", 2).c_str(), Optional(r.powp58_us, "-", 2).c_str(),
                Optional(r.powp58_batch_us, "-", 2).c_str());
  }

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"group_ops\",\n  \"hardware_concurrency\": %u,\n"
               "  \"sha256_impl\": \"%s\",\n  \"sha256_mb_s\": %.1f,\n"
               "  \"field_kernel\": \"%s\",\n  \"results\": [\n",
               std::thread::hardware_concurrency(), sha256_impl, sha256_mb_s, field_kernel);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"group\": \"%s\", \"order_bits\": %zu, \"exp_generic_us\": %.3f, "
                 "\"exp_comb_us\": %.3f, \"comb_window\": %zu, \"comb_table_kb\": %.1f, "
                 "\"table_build_ms\": %.3f, \"msm_wnaf_per_term_us\": %.3f, "
                 "\"msm_pippenger_per_term_us\": %.3f, "
                 "\"mul_us\": %.4f, \"encode_us\": %.4f, \"encode_batch_us\": %.4f, "
                 "\"decode_us\": %.3f, \"decode_batch_us\": %.3f, \"sqrt_us\": %s, "
                 "\"powp58_us\": %s, \"powp58_batch_us\": %s, \"or_prove_bit0_us\": %.3f, "
                 "\"or_prove_bit1_us\": %.3f, \"or_challenge_us\": %.3f, "
                 "\"scalar_wide_us\": %.4f}%s\n",
                 r.group.c_str(), r.order_bits, r.exp_generic_us, r.exp_comb_us, r.comb_window,
                 r.comb_table_kb, r.table_build_ms, r.msm_wnaf_per_term_us,
                 r.msm_pippenger_per_term_us, r.mul_us, r.encode_us, r.encode_batch_us,
                 r.decode_us, r.decode_batch_us, Optional(r.sqrt_us, "null", 3).c_str(),
                 Optional(r.powp58_us, "null", 3).c_str(),
                 Optional(r.powp58_batch_us, "null", 3).c_str(), r.or_prove_us[0],
                 r.or_prove_us[1], r.or_challenge_us, r.scalar_wide_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
