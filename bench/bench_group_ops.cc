// Group-operation microbenchmarks across every registered group: the raw
// costs the protocol layers are built on. For each group: generic Exp,
// comb fixed-base Exp (the Pedersen/verifier path), wNAF and Pippenger MSM
// per-term cost, plain group Mul, (batch) encoding, strict Decode of a member
// encoding (the public auditor's per-element cost), the field square root
// inside that decode, the client's OR proof per secret bit, and the wide
// reduction behind every Fiat-Shamir challenge. One table makes the comb and
// kernel speedups visible per group, and the committed BENCH_group_ops.json
// baseline plus the CI artifact keep them trended.
//
// Usage: bench_group_ops [out.json]   (default BENCH_group_ops.json)
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/batch/msm.h"
#include "src/commit/pedersen.h"
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
  double msm_wnaf_per_term_us = 0;       // n = 32
  double msm_pippenger_per_term_us = 0;  // n = 512
  double mul_us = 0;
  double encode_us = 0;
  double encode_batch_us = 0;  // per element, batch of 256
  double decode_us = 0;        // strict Decode (range + subgroup) of a member
  double sqrt_us = -1;         // field square root in Decode; < 0: none
  double or_prove_us[2] = {0, 0};  // OrProve of a bit-0 / bit-1 commitment
  double scalar_wide_us = 0;       // FromBytesWide of a 32-byte digest
};

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

  std::vector<std::vector<uint64_t>> limbs;
  for (const auto& s : msm_scalars) {
    limbs.push_back(vdp::msm_internal::ToLimbs(s.Encode()));
  }
  timer.Reset();
  for (size_t r = 0; r < msm_reps; ++r) {
    sink = G::Mul(sink, vdp::MsmPippenger<G>(bases, limbs, 0, pip_n));
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
      wide_sink.Encode().empty()) {
    std::fprintf(stderr, "impossible: empty encoding\n");
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_group_ops.json";
  std::vector<GroupRow> rows;
  vdp::ForEachRegisteredGroup([&](auto tag) {
    using G = typename decltype(tag)::Group;
    std::printf("measuring %s...\n", G::Name().c_str());
    rows.push_back(Measure<G>());
  });

  std::printf("\n%-18s %6s %12s %12s %12s %12s %10s %10s %10s %10s %10s %10s %10s %10s\n",
              "group", "bits", "exp(us)", "comb(us)", "wnaf/t(us)", "pip/t(us)", "mul(us)",
              "enc(us)", "encB(us)", "dec(us)", "or0(us)", "or1(us)", "wide(us)", "sqrt(us)");
  for (const auto& r : rows) {
    std::printf("%-18s %6zu %12.2f %12.2f %12.2f %12.2f %10.3f %10.3f %10.3f %10.2f ",
                r.group.c_str(), r.order_bits, r.exp_generic_us, r.exp_comb_us,
                r.msm_wnaf_per_term_us, r.msm_pippenger_per_term_us, r.mul_us, r.encode_us,
                r.encode_batch_us, r.decode_us);
    std::printf("%10.2f %10.2f %10.3f ", r.or_prove_us[0], r.or_prove_us[1], r.scalar_wide_us);
    if (r.sqrt_us < 0) {
      std::printf("%10s\n", "-");
    } else {
      std::printf("%10.2f\n", r.sqrt_us);
    }
  }

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"group_ops\",\n  \"hardware_concurrency\": %u,\n"
               "  \"results\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char sqrt_buf[32];
    std::snprintf(sqrt_buf, sizeof(sqrt_buf), "%.3f", r.sqrt_us);
    const std::string sqrt_json = r.sqrt_us < 0 ? "null" : sqrt_buf;
    std::fprintf(f,
                 "    {\"group\": \"%s\", \"order_bits\": %zu, \"exp_generic_us\": %.3f, "
                 "\"exp_comb_us\": %.3f, \"table_build_ms\": %.3f, "
                 "\"msm_wnaf_per_term_us\": %.3f, \"msm_pippenger_per_term_us\": %.3f, "
                 "\"mul_us\": %.4f, \"encode_us\": %.4f, \"encode_batch_us\": %.4f, "
                 "\"decode_us\": %.3f, \"sqrt_us\": %s, \"or_prove_bit0_us\": %.3f, "
                 "\"or_prove_bit1_us\": %.3f, \"scalar_wide_us\": %.4f}%s\n",
                 r.group.c_str(), r.order_bits, r.exp_generic_us, r.exp_comb_us,
                 r.table_build_ms, r.msm_wnaf_per_term_us, r.msm_pippenger_per_term_us,
                 r.mul_us, r.encode_us, r.encode_batch_us, r.decode_us, sqrt_json.c_str(),
                 r.or_prove_us[0], r.or_prove_us[1], r.scalar_wide_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
