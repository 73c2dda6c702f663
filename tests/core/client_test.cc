#include "src/core/client.h"

#include <gtest/gtest.h>

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

ProtocolConfig TestConfig(size_t k, size_t m) {
  ProtocolConfig config;
  config.epsilon = 50.0;  // hits the nb = 31 floor; fast tests
  config.num_provers = k;
  config.num_bins = m;
  config.session_id = "client-test";
  return config;
}

TEST(ClientTest, BundleShapesMatchConfig) {
  Pedersen<G> ped;
  SecureRng rng("shapes");
  auto config = TestConfig(3, 4);
  auto bundle = MakeClientBundle<G>(2, 0, config, ped, rng);
  EXPECT_EQ(bundle.shares.size(), 3u);
  EXPECT_EQ(bundle.upload.commitments.size(), 3u);
  for (const auto& share : bundle.shares) {
    EXPECT_EQ(share.values.size(), 4u);
    EXPECT_EQ(share.randomness.size(), 4u);
  }
  EXPECT_EQ(bundle.upload.bin_proofs.size(), 4u);
}

TEST(ClientTest, HonestBundleValidates) {
  Pedersen<G> ped;
  SecureRng rng("honest");
  for (auto [k, m] : std::vector<std::pair<size_t, size_t>>{{1, 1}, {2, 1}, {2, 3}, {3, 5}}) {
    auto config = TestConfig(k, m);
    uint32_t choice = (m == 1) ? 1 : static_cast<uint32_t>(m - 1);
    auto bundle = MakeClientBundle<G>(choice, 7, config, ped, rng);
    std::string reason;
    EXPECT_TRUE(ValidateClientUpload(bundle.upload, 7, config, ped, &reason))
        << "k=" << k << " m=" << m << ": " << reason;
  }
}

TEST(ClientTest, SharesReconstructOneHotInput) {
  Pedersen<G> ped;
  SecureRng rng("recon");
  auto config = TestConfig(3, 4);
  auto bundle = MakeClientBundle<G>(2, 0, config, ped, rng);
  for (size_t bin = 0; bin < 4; ++bin) {
    S sum = S::Zero();
    for (size_t p = 0; p < 3; ++p) {
      sum += bundle.shares[p].values[bin];
    }
    EXPECT_EQ(sum, bin == 2 ? S::One() : S::Zero()) << "bin=" << bin;
  }
}

TEST(ClientTest, BitSemanticsForSingleBin) {
  Pedersen<G> ped;
  SecureRng rng("bit");
  auto config = TestConfig(2, 1);
  for (uint32_t bit : {0u, 1u}) {
    auto bundle = MakeClientBundle<G>(bit, 0, config, ped, rng);
    S sum = bundle.shares[0].values[0] + bundle.shares[1].values[0];
    EXPECT_EQ(sum, S::FromU64(bit));
    EXPECT_TRUE(ValidateClientUpload(bundle.upload, 0, config, ped));
  }
}

TEST(ClientTest, CommitmentsMatchShares) {
  Pedersen<G> ped;
  SecureRng rng("match");
  auto config = TestConfig(2, 2);
  auto bundle = MakeClientBundle<G>(1, 0, config, ped, rng);
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(ClientShareConsistent(bundle.shares[p], bundle.upload.commitments[p], ped));
  }
}

TEST(ClientTest, ValidationFailsForWrongClientIndex) {
  // Proof context binds the client index: a replayed upload under another
  // identity is rejected.
  Pedersen<G> ped;
  SecureRng rng("replay");
  auto config = TestConfig(2, 1);
  auto bundle = MakeClientBundle<G>(1, 3, config, ped, rng);
  EXPECT_TRUE(ValidateClientUpload(bundle.upload, 3, config, ped));
  EXPECT_FALSE(ValidateClientUpload(bundle.upload, 4, config, ped));
}

TEST(ClientTest, ValidationFailsForWrongSession) {
  Pedersen<G> ped;
  SecureRng rng("session");
  auto config = TestConfig(2, 1);
  auto bundle = MakeClientBundle<G>(1, 0, config, ped, rng);
  auto other = config;
  other.session_id = "another-session";
  EXPECT_FALSE(ValidateClientUpload(bundle.upload, 0, other, ped));
}

// A client commits to 5 and "proves" it is a bit by simulating both OR
// branches with e0 + e1 = 0. That is accepted exactly when the Fiat-Shamir
// challenge is zero, so it pins that ModP64 -- whose 64-bit scalars are
// narrower than the 32-byte challenge digest -- still reduces the digest.
TEST(ClientTest, ModP64ZeroChallengeForgeryRejected) {
  using G64 = ModP64;
  Pedersen<G64> ped;
  SecureRng rng("modp64-forge");
  auto config = TestConfig(1, 1);
  auto bundle = MakeClientBundle<G64>(1, 0, config, ped, rng);
  auto r = G64::Scalar::Random(rng);
  auto c = ped.Commit(G64::Scalar::FromU64(5), r);
  bundle.upload.commitments[0][0] = c;
  bundle.upload.bin_proofs[0] = OrSimulate(ped, c, G64::Scalar::Zero(), rng);
  std::string reason;
  EXPECT_FALSE(ValidateClientUpload(bundle.upload, 0, config, ped, &reason));
  EXPECT_EQ(reason, kDetailProofInvalid);
}

TEST(ClientTest, MalformedShapesRejected) {
  Pedersen<G> ped;
  SecureRng rng("malformed");
  auto config = TestConfig(2, 2);
  auto bundle = MakeClientBundle<G>(1, 0, config, ped, rng);

  auto missing_prover = bundle.upload;
  missing_prover.commitments.pop_back();
  std::string reason;
  EXPECT_FALSE(ValidateClientUpload(missing_prover, 0, config, ped, &reason));
  EXPECT_EQ(reason, "malformed upload shape");

  auto missing_bin = bundle.upload;
  missing_bin.commitments[0].pop_back();
  EXPECT_FALSE(ValidateClientUpload(missing_bin, 0, config, ped));

  auto missing_proof = bundle.upload;
  missing_proof.bin_proofs.pop_back();
  EXPECT_FALSE(ValidateClientUpload(missing_proof, 0, config, ped));
}

TEST(ClientTest, InconsistentShareDetectedByProver) {
  Pedersen<G> ped;
  SecureRng rng("inconsistent");
  auto config = TestConfig(2, 1);
  auto bundle = MakeClientBundle<G>(1, 0, config, ped, rng);
  bundle.shares[0].values[0] += S::One();
  EXPECT_FALSE(ClientShareConsistent(bundle.shares[0], bundle.upload.commitments[0], ped));
  // The other prover's share is untouched.
  EXPECT_TRUE(ClientShareConsistent(bundle.shares[1], bundle.upload.commitments[1], ped));
}

TEST(ClientTest, ShareSizeMismatchIsInconsistent) {
  Pedersen<G> ped;
  SecureRng rng("size");
  auto config = TestConfig(2, 2);
  auto bundle = MakeClientBundle<G>(1, 0, config, ped, rng);
  bundle.shares[0].values.pop_back();
  EXPECT_FALSE(ClientShareConsistent(bundle.shares[0], bundle.upload.commitments[0], ped));
}

}  // namespace
}  // namespace vdp
