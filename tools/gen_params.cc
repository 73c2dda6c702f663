// Generates the Z_p* group parameters hard-coded in src/group/modp_params.cc.
// Run once per parameter set:
//
//   gen_params <bits>
//
// Prints a safe prime p (hex). The subgroup of quadratic residues mod p has
// prime order q = (p-1)/2; g = 4 generates it.
//
//   gen_params schnorr <512|2048>
//
// Prints p, a 256-bit prime q dividing p - 1, and a generator g of the
// order-q subgroup (the short-exponent sets).
//
//   gen_params list
//
// Prints every registered group (the set reachable by name from the wire,
// the benchmarks, and the VDP_GROUP conformance hook).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/timer.h"
#include "src/group/registry.h"
#include "src/math/primality.h"

namespace {

template <size_t L>
void GenerateSchnorr(size_t pbits) {
  vdp::SecureRng rng = vdp::SecureRng::FromEntropy();
  vdp::Stopwatch timer;
  auto params = vdp::GenerateSchnorrGroup<L>(pbits, 256, rng);
  std::printf("// %zu-bit modulus with 256-bit subgroup (generated in %.1f s)\n", pbits,
              timer.ElapsedSeconds());
  std::printf("p = %s\n", params.p.ToHex().c_str());
  std::printf("q = %s\n", params.q.ToHex().c_str());
  std::printf("g = %s\n", params.g.ToHex().c_str());
}

template <size_t L>
void Generate(size_t bits) {
  vdp::SecureRng rng = vdp::SecureRng::FromEntropy();
  vdp::Stopwatch timer;
  vdp::BigInt<L> p = vdp::GenerateSafePrime<L>(bits, rng);
  std::printf("// %zu-bit safe prime (generated in %.1f s)\n", bits, timer.ElapsedSeconds());
  std::printf("p = %s\n", p.ToHex().c_str());
  vdp::BigInt<L> q = p;
  vdp::BigInt<L>::SubInto(q, q, vdp::BigInt<L>::One());
  q.ShiftRight1();
  std::printf("q = %s\n", q.ToHex().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "list") == 0) {
    std::printf("%-20s %14s %12s\n", "group", "element_bytes", "order_bits");
    for (const auto& info : vdp::RegisteredGroupInfos()) {
      std::printf("%-20s %14zu %12zu\n", info.name.c_str(), info.element_bytes,
                  info.scalar_bits);
    }
    return 0;
  }
  if (argc == 3 && std::strcmp(argv[1], "schnorr") == 0) {
    size_t pbits = static_cast<size_t>(std::atoi(argv[2]));
    switch (pbits) {
      case 512:
        GenerateSchnorr<8>(pbits);
        return 0;
      case 2048:
        GenerateSchnorr<32>(pbits);
        return 0;
      default:
        std::fprintf(stderr, "unsupported schnorr modulus size\n");
        return 1;
    }
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <bits: 64|256|512|1024|2048> | %s schnorr <512|2048> | %s list\n",
                 argv[0], argv[0], argv[0]);
    return 1;
  }
  size_t bits = static_cast<size_t>(std::atoi(argv[1]));
  switch (bits) {
    case 64:
      Generate<1>(bits);
      break;
    case 256:
      Generate<4>(bits);
      break;
    case 512:
      Generate<8>(bits);
      break;
    case 1024:
      Generate<16>(bits);
      break;
    case 2048:
      Generate<32>(bits);
      break;
    default:
      std::fprintf(stderr, "unsupported bit size\n");
      return 1;
  }
  return 0;
}
