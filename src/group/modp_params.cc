#include "src/group/modp_params.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace vdp {
namespace {

template <size_t N>
BigInt<N> Hex(const char* hex) {
  auto v = BigInt<N>::FromHex(hex);
  if (!v.has_value()) {
    throw std::logic_error("bad hard-coded Z_p* parameter");
  }
  return *v;
}

template <size_t L, size_t QL>
ModPParams<L, QL> MakeParams(std::string name, const char* hash_domain, const BigInt<L>& p,
                             const BigInt<QL>& q, const BigInt<L>& g) {
  ModPParams<L, QL> params{std::move(name), hash_domain, p, q, {}, g};
  // cofactor = (p - 1) / q, exact by construction (revalidated in tests).
  BigInt<L> p_minus_1 = p;
  BigInt<L>::SubInto(p_minus_1, p_minus_1, BigInt<L>::One());
  params.cofactor = DivMod(p_minus_1, q.template Resize<L>()).quotient;
  return params;
}

// Safe prime p: q = (p - 1) / 2, and g = 4 = 2^2 is a quadratic residue; any
// non-identity QR generates the order-q group.
template <size_t L>
ModPParams<L, L> SafePrime(const char* p_hex) {
  BigInt<L> p = Hex<L>(p_hex);
  BigInt<L> q = p;
  BigInt<L>::SubInto(q, q, BigInt<L>::One());
  q.ShiftRight1();
  return MakeParams<L, L>("modp-" + std::to_string(L * 64), "vdp/modp-hash-to-group", p, q,
                          BigInt<L>::FromU64(4));
}

template <size_t L>
ModPParams<L, 4> ShortExponent(const char* p_hex, const char* q_hex, const char* g_hex) {
  return MakeParams<L, 4>("schnorr-" + std::to_string(L * 64) + "-q256",
                          "vdp/schnorr-hash-to-group", Hex<L>(p_hex), Hex<4>(q_hex),
                          Hex<L>(g_hex));
}

}  // namespace

const ModPParams<1, 1>& ModP64Params() {
  static const ModPParams<1, 1> params = SafePrime<1>("b5523ad7a8985107");
  return params;
}

const ModPParams<4, 4>& ModP256Params() {
  static const ModPParams<4, 4> params = SafePrime<4>(
      "dbe9f9f63d95fe684c6f3cf76db3caf6ef4b7cd5130565e79f68a3ea74fdf9b7");
  return params;
}

const ModPParams<8, 8>& ModP512Params() {
  static const ModPParams<8, 8> params = SafePrime<8>(
      "b0bcaef9afed33c017b99edeab6c784d51b6b9705b23e46d5b0111cc063bbe07"
      "f793df0dee28fa6bcf7230c355c7eff0a68c23c4c3c9d8cad71e2ca52d9b47a7");
  return params;
}

const ModPParams<16, 16>& ModP1024Params() {
  static const ModPParams<16, 16> params = SafePrime<16>(
      "e22969ca762a76d7d4cbeb6a96716e6be27aaa74068cf887e09290ce8757ae3b"
      "04fb5d9dc6b07efb90ede13351fbd0daf4bc0e45506433ab8ac1defabc960859"
      "d3f38e1e1f11f51e0eb64ba1751a75a20bad018db01a3743a351c2c599cb5a6d"
      "efbd9805b9f581c4dfe34c9c768516407f660067ff88aa920b375bfc178e863f");
  return params;
}

const ModPParams<32, 32>& ModP2048Params() {
  static const ModPParams<32, 32> params = SafePrime<32>(
      "9f81159495a9a1c4f6ed4014a2ecf1ab8cc52bfc744f767a57234743a0d0ed10"
      "2267540c163e15071fde8596c955be930718fe007e1497029cc944b2d0ef6db6"
      "d43ecadae39e8b87e67d3b3503169bb8a2700010f4a698fc18843323b5f95105"
      "69fd87ec1e261787c45081584bee72fd4f58075361233d69a5f31de3900d51ab"
      "ebb62aa167cb69ef2b72b9c71e2cdeb3997dd7c869520a8072c2efae79e4a262"
      "8cba7a6c5cb83fd16980b9c01b89850235d75340a78bfba6b1541836de3043e3"
      "2ffa3d84f21719651eec990ace65460a4976b012aa19c244e58c53c26e8b87b2"
      "cf4bb087653107935e46b7f32688c6fb54bf778d8b5856284f99bf5388f4e0cf");
  return params;
}

const ModPParams<8, 4>& Schnorr512Params() {
  static const ModPParams<8, 4> params = ShortExponent<8>(
      "9c513b3ba085f7deac85d537eb0da8d65aba848973ae4cd5f49d0089dcd25f3b"
      "29bc08c8027c853b871a2112e0ccd8ac8c38904264a6046945cda027468b9593",
      "a1af2c6cfd7936d831a085893018886133ffcc32cfa83b7b4889c9eedd1af88f",
      "07effabe563852159d316ad8628a29b7c3f626661d1c5bc789a71531c08464f4"
      "75447e8094bb18facf96c7a5fa120a73d751e08fb48232bd5a5e432b782b1511");
  return params;
}

const ModPParams<32, 4>& Schnorr2048Params() {
  static const ModPParams<32, 4> params = ShortExponent<32>(
      "9dbf4dffab940e40473c16df505a9c5b233cb01ec0c03b1798c35b0c7cf82e49"
      "f6e9bf3addf12b838b4e621c4636cacdd2ceb0db8ca960018c48d6b725e8525d"
      "5c0a3a16e792f4f1fb4ee82ffe409815581fde5bbeaed201a2b4cab3820ca308"
      "de696b612b4f2a29e27fed9396c30a071cbf8584013d5c8a63e8a4b494ac3fb7"
      "9536423d865cc076da78a8821cc916765e7f3eca3cbc5e9ea62b73d944cc0c69"
      "8407a4645404a8fcc5b4c024310b1df94a3a3e384377f84e717d60c7539d69a1"
      "46d686c44de8a7c4e3583a22eebced86aefbff2419c171fda1fc1754bd130d4e"
      "ff76a59815b8ccc3aa11ddb75f9d23f1025fb150db279cab76d166e5fb3a3a67",
      "a2522efefb23fd5830af637e04122cc42395a366cf2ac3606c263c36c459cb55",
      "290df5589ef072fdb028903c1c85013b2999a802840e4f80cc9f4d56beddeb8a"
      "2bdac9ae2fc7ef1edfad59535b2961539f2422bf204504668b01e980b9d7ebec"
      "65ed2cff9a659e212924aad58a177e25aced23a5634c9849101a0798e27a5f64"
      "8f367d90e2ae0819282fd4f1f018cfd254ac5d4602b6e06ba6929634c4837e58"
      "7e285439646c096569e983fc7d273ed989199f67398c68c44f0d81c37dbe25c7"
      "07d676a2a849943b7afc81676d5fc7344c137e798663a96fd350ed67898919ed"
      "af1f9cf5a9af079b00de7db9647fa466fb5d1ab5b50841a0cdcc7ddb78460f53"
      "b3c75927989e712d4f3d6c982e8867c1836cfa4bf8b2ff8706bc6d8322a672ef");
  return params;
}

}  // namespace vdp
