// Byte-identity of every Z_p* group's public values: the name that the wire
// setup frame and VDP_GROUP select by, the generator, the Pedersen h (from
// HashToGroup) and one fixed-base exponentiation must encode to exactly the
// pinned SHA-256 digests. These are what transcripts and wire frames carry,
// so a change to how a group is written (as opposed to what it is) must keep
// them.
#include <gtest/gtest.h>

#include <string>

#include "src/commit/pedersen.h"
#include "src/common/hex.h"
#include "src/common/sha256.h"

namespace vdp {
namespace {

std::string DigestHex(const Bytes& bytes) {
  Sha256::Digest d = Sha256::Hash(bytes);
  return HexEncode(BytesView(d.data(), d.size()));
}

template <PrimeOrderGroup G>
void ExpectPinned(const std::string& name, const std::string& generator_digest,
                  const std::string& h_digest, const std::string& exp_digest) {
  SCOPED_TRACE(name);
  Sha256::Digest seed = Sha256::Hash(StrView("vdp/zp-golden-scalar"));
  auto s = G::Scalar::FromBytesWide(BytesView(seed.data(), seed.size()));
  EXPECT_EQ(G::Name(), name);
  EXPECT_EQ(DigestHex(G::Encode(G::Generator())), generator_digest);
  EXPECT_EQ(DigestHex(Pedersen<G>().encoded_h()), h_digest);
  EXPECT_EQ(DigestHex(G::Encode(G::ExpG(s))), exp_digest);
}

TEST(ZpGoldenTest, SafePrimeGroupsAreByteIdentical) {
  ExpectPinned<ModP64>("modp-64",
      "8005f02d43fa06e7d0585fb64c961d57e318b27a145c857bcd3a6bdb413ff7fc",
      "dee5266058af29fd58911f94ba1d965680a2c2dd87284d51669cc08af19fef68",
      "ce79900db865a7a16be8e99c17fa7be953bcb967afbdb3e624f22d327e592a10");
  ExpectPinned<ModP256>("modp-256",
      "e38990d0c7fc009880a9c07c23842e886c6bbdc964ce6bdd5817ad357335ee6f",
      "20b90bff4ee098f1fb50ae164ebd3f09e4942e9e2bb8aa62c3ef4d7db66d39c7",
      "4ac0b88a5c23dc0daaa94abbd608d9f4e044c4942238396516765c71e847bf2c");
  ExpectPinned<ModP512>("modp-512",
      "517b7af2368fe450db775db95cc0745d9ffa7cb26ce7d5922ba01ec50a2c7000",
      "52fe1029bbbabe85a131fb4d82483de649443bed65ed173f2ab833ec64c2bea7",
      "155838b64dee4936d72ffd58a1c24672ca3d35be395d18db2fa19cb83689e9cc");
  ExpectPinned<ModP1024>("modp-1024",
      "f78e325d0f3beb08f11256b91bea190e222c5b3727d68b10e7d87c5a20c86a48",
      "a0ebdc5b6d308d2b1d23da8ecc08d44ff99e9a2931e730a4f2669e3b0f27b626",
      "9c8bab986a49b8b4aaba0229d8fb5747286e195f7c843d02ba80656bb669e89a");
  ExpectPinned<ModP2048>("modp-2048",
      "f28df1a76e0150b22b6a770bc3e555ddbf3145ec80adb4244a1c094a109c1c08",
      "de9b7809b26dc46a16e66b410818500e9fbd44e84067716104f52cde1ced80ce",
      "b8e113bb0b0857c7d2e8f5ed43fed07e99bfae4979158d1ba2e02803fa09b98b");
}

TEST(ZpGoldenTest, ShortExponentGroupsAreByteIdentical) {
  ExpectPinned<Schnorr512>("schnorr-512-q256",
      "42ede3559ac9d974946270a08ac585784e7f32eca5cce96cab4c0bc73e88ad4d",
      "3128687a4c97539c8356c64ef23b5391c7fc0767f67037ddfe5853fd3c3436a5",
      "8d3a65c1b2fecb40d09b0e10008e0104f2f0bbb1ec5d24c95b2e4912587278a4");
  ExpectPinned<Schnorr2048>("schnorr-2048-q256",
      "16d2e6308f61f31f02907a9b56876645c3fc35efab81bc6f6a9ac1e9407c4ebc",
      "a71885eb074817ba3e7963573b5a5759e8a3848ea78a237d8491e63361cede1b",
      "a92befd24fbb8df7757fdf99d12a93d1d50750e2e4de9e1403d913eed8fc7751");
}

}  // namespace
}  // namespace vdp
