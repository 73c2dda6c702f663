#include "src/sigma/or_proof.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vdp {
namespace {

template <typename G>
class OrProofTest : public ::testing::Test {};

using GroupTypes = ::testing::Types<ModP256, Ed25519Group>;
TYPED_TEST_SUITE(OrProofTest, GroupTypes);

TYPED_TEST(OrProofTest, CompletenessForBothBits) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-c-" + G::Name());
  for (int bit : {0, 1}) {
    S r = S::Random(rng);
    auto c = ped.Commit(S::FromU64(bit), r);
    auto proof = OrProve(ped, c, bit, r, rng, "ctx");
    EXPECT_TRUE(OrVerify(ped, c, proof, "ctx")) << "bit=" << bit;
  }
}

TYPED_TEST(OrProofTest, NonBitCommitmentCannotBeProved) {
  // A cheating prover that committed to x not in {0,1} and runs the honest
  // prover code (with either claimed bit) always fails verification.
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-s-" + G::Name());
  for (uint64_t x : {2ull, 3ull, 17ull}) {
    S r = S::Random(rng);
    auto c = ped.Commit(S::FromU64(x), r);
    for (int claimed : {0, 1}) {
      auto proof = OrProve(ped, c, claimed, r, rng, "ctx");
      EXPECT_FALSE(OrVerify(ped, c, proof, "ctx")) << "x=" << x << " claimed=" << claimed;
    }
  }
}

TYPED_TEST(OrProofTest, WrongRandomnessFails) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-r-" + G::Name());
  S r = S::Random(rng);
  auto c = ped.Commit(S::One(), r);
  auto proof = OrProve(ped, c, 1, r + S::One(), rng, "ctx");
  EXPECT_FALSE(OrVerify(ped, c, proof, "ctx"));
}

TYPED_TEST(OrProofTest, TamperedProofComponentsFail) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-t-" + G::Name());
  S r = S::Random(rng);
  auto c = ped.Commit(S::Zero(), r);
  auto good = OrProve(ped, c, 0, r, rng, "ctx");
  ASSERT_TRUE(OrVerify(ped, c, good, "ctx"));

  auto t1 = good;
  t1.e0 = t1.e0 + S::One();
  EXPECT_FALSE(OrVerify(ped, c, t1, "ctx"));

  auto t2 = good;
  t2.z0 = t2.z0 + S::One();
  EXPECT_FALSE(OrVerify(ped, c, t2, "ctx"));

  auto t3 = good;
  t3.z1 = t3.z1 + S::One();
  EXPECT_FALSE(OrVerify(ped, c, t3, "ctx"));

  auto t4 = good;
  t4.a0 = G::Mul(t4.a0, G::Generator());
  EXPECT_FALSE(OrVerify(ped, c, t4, "ctx"));

  auto t5 = good;
  std::swap(t5.e0, t5.e1);
  EXPECT_FALSE(OrVerify(ped, c, t5, "ctx"));
}

TYPED_TEST(OrProofTest, ProofDoesNotTransferToOtherCommitment) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-x-" + G::Name());
  S r1 = S::Random(rng), r2 = S::Random(rng);
  auto c1 = ped.Commit(S::Zero(), r1);
  auto c2 = ped.Commit(S::Zero(), r2);
  auto proof = OrProve(ped, c1, 0, r1, rng, "ctx");
  EXPECT_FALSE(OrVerify(ped, c2, proof, "ctx"));
}

TYPED_TEST(OrProofTest, ContextSeparation) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-ctx-" + G::Name());
  S r = S::Random(rng);
  auto c = ped.Commit(S::One(), r);
  auto proof = OrProve(ped, c, 1, r, rng, "session-a");
  EXPECT_TRUE(OrVerify(ped, c, proof, "session-a"));
  EXPECT_FALSE(OrVerify(ped, c, proof, "session-b"));
}

TYPED_TEST(OrProofTest, SerializationRoundTrip) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-ser-" + G::Name());
  S r = S::Random(rng);
  auto c = ped.Commit(S::One(), r);
  auto proof = OrProve(ped, c, 1, r, rng, "ctx");
  auto parsed = OrProof<G>::Deserialize(proof.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(OrVerify(ped, c, *parsed, "ctx"));
}

TYPED_TEST(OrProofTest, DeserializeRejectsGarbage) {
  using G = TypeParam;
  EXPECT_FALSE(OrProof<G>::Deserialize(Bytes{0xde, 0xad}).has_value());
  EXPECT_FALSE(OrProof<G>::Deserialize(Bytes{}).has_value());
  // Truncated valid proof.
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-g-" + G::Name());
  S r = S::Random(rng);
  auto c = ped.Commit(S::Zero(), r);
  auto proof = OrProve(ped, c, 0, r, rng, "ctx");
  Bytes bytes = proof.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(OrProof<G>::Deserialize(bytes).has_value());
}

TYPED_TEST(OrProofTest, SimulatorProducesAcceptingTranscripts) {
  // HVZK: for any commitment (even to a non-bit!) and any chosen challenge,
  // the simulator outputs an accepting interactive transcript. This is why
  // the Fiat-Shamir ordering (commitments before challenge) is essential for
  // soundness, and why transcripts reveal nothing about the committed bit.
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-sim-" + G::Name());
  for (uint64_t x : {0ull, 1ull, 7ull}) {
    S r = S::Random(rng);
    auto c = ped.Commit(S::FromU64(x), r);
    S e = S::Random(rng);
    auto transcript = OrSimulate(ped, c, e, rng);
    EXPECT_TRUE(OrVerifyWithChallenge(ped, c, transcript, e)) << "x=" << x;
  }
}

TYPED_TEST(OrProofTest, RealInteractiveTranscriptAlsoAccepts) {
  // Real FS proofs satisfy the explicit-challenge check with the challenge
  // recomputed from the transcript; their sub-challenge split matches.
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-real-" + G::Name());
  S r = S::Random(rng);
  auto c = ped.Commit(S::One(), r);
  auto proof = OrProve(ped, c, 1, r, rng, "ctx");
  EXPECT_TRUE(OrVerifyWithChallenge(ped, c, proof, proof.e0 + proof.e1));
}

TYPED_TEST(OrProofTest, BatchProveAndVerify) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-batch-" + G::Name());
  constexpr size_t kCount = 16;
  std::vector<typename G::Element> cs;
  std::vector<int> bits;
  std::vector<S> rs;
  for (size_t i = 0; i < kCount; ++i) {
    bits.push_back(static_cast<int>(i % 2));
    rs.push_back(S::Random(rng));
    cs.push_back(ped.Commit(S::FromU64(bits.back()), rs.back()));
  }
  auto proofs = OrProveBatch(ped, cs, bits, rs, rng, "batch");
  EXPECT_TRUE(OrVerifyBatch(ped, cs, proofs, "batch"));
}

TYPED_TEST(OrProofTest, BatchParallelMatchesSerialAcceptance) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-par-" + G::Name());
  constexpr size_t kCount = 12;
  std::vector<typename G::Element> cs;
  std::vector<int> bits;
  std::vector<S> rs;
  for (size_t i = 0; i < kCount; ++i) {
    bits.push_back(1);
    rs.push_back(S::Random(rng));
    cs.push_back(ped.Commit(S::One(), rs.back()));
  }
  ThreadPool pool(2);
  auto proofs = OrProveBatch(ped, cs, bits, rs, rng, "par", &pool);
  EXPECT_TRUE(OrVerifyBatch(ped, cs, proofs, "par", &pool));
}

TYPED_TEST(OrProofTest, BatchRejectsOneBadProof) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng rng("or-bad-" + G::Name());
  constexpr size_t kCount = 8;
  std::vector<typename G::Element> cs;
  std::vector<int> bits;
  std::vector<S> rs;
  for (size_t i = 0; i < kCount; ++i) {
    bits.push_back(0);
    rs.push_back(S::Random(rng));
    cs.push_back(ped.Commit(S::Zero(), rs.back()));
  }
  auto proofs = OrProveBatch(ped, cs, bits, rs, rng, "bad");
  proofs[kCount / 2].z0 = proofs[kCount / 2].z0 + S::One();
  EXPECT_FALSE(OrVerifyBatch(ped, cs, proofs, "bad"));
}

TYPED_TEST(OrProofTest, BatchSizeMismatchRejected) {
  using G = TypeParam;
  Pedersen<G> ped;
  std::vector<typename G::Element> cs(3, G::Identity());
  std::vector<OrProof<G>> proofs(2);
  EXPECT_FALSE(OrVerifyBatch(ped, cs, proofs, "mismatch"));
}

// The reference prover: the variable-base formulation, kept here verbatim
// as the oracle for byte-identity. It simulates the branch it cannot open
// from the statement alone, as OrSimulate does, and hashes the transcript
// schedule spelled out by hand.
template <PrimeOrderGroup G>
OrProof<G> ReferenceOrProve(const Pedersen<G>& ped, const typename G::Element& c, int bit,
                            const typename G::Scalar& r, SecureRng& rng,
                            const std::string& context) {
  using S = typename G::Scalar;
  OrProof<G> proof;
  S k = S::Random(rng);
  S e_sim = S::Random(rng);
  S z_sim = S::Random(rng);
  if (bit == 0) {
    proof.a0 = ped.ExpH(k);
    proof.a1 = G::Mul(ped.ExpH(z_sim), G::Exp(Div<G>(c, ped.params().g), -e_sim));
    proof.e1 = e_sim;
    proof.z1 = z_sim;
  } else {
    proof.a1 = ped.ExpH(k);
    proof.a0 = G::Mul(ped.ExpH(z_sim), G::Exp(c, -e_sim));
    proof.e0 = e_sim;
    proof.z0 = z_sim;
  }
  Transcript t("vdp/or-proof");
  t.Append("context", ToBytes(context));
  t.Append("g", G::Encode(ped.params().g));
  t.Append("h", G::Encode(ped.params().h));
  t.Append("c", G::Encode(c));
  t.Append("a0", G::Encode(proof.a0));
  t.Append("a1", G::Encode(proof.a1));
  S e = t.template ChallengeScalar<S>("e");
  if (bit == 0) {
    proof.e0 = e - proof.e1;
    proof.z0 = k + proof.e0 * r;
  } else {
    proof.e1 = e - proof.e0;
    proof.z1 = k + proof.e1 * r;
  }
  return proof;
}

template <typename G>
class OrProveIdentityTest : public ::testing::Test {};

using AllGroupTypes = ::testing::Types<ModP64, ModP256, ModP512, ModP1024, ModP2048, Schnorr512,
                                       Schnorr2048, Ed25519Group>;
TYPED_TEST_SUITE(OrProveIdentityTest, AllGroupTypes);

TYPED_TEST(OrProveIdentityTest, MatchesVariableBaseReference) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng setup("or-ref-" + G::Name());
  for (int bit : {0, 1, 0, 1}) {
    S r = S::Random(setup);
    auto c = ped.Commit(S::FromU64(static_cast<uint64_t>(bit)), r);
    const std::string label = "or-ref-proof-" + r.value().ToHex();
    SecureRng rng(label);
    SecureRng ref_rng(label);
    auto proof = OrProve(ped, c, bit, r, rng, "ctx");
    auto reference = ReferenceOrProve(ped, c, bit, r, ref_rng, "ctx");
    EXPECT_EQ(proof.Serialize(), reference.Serialize()) << "bit=" << bit;
    EXPECT_TRUE(OrVerify(ped, c, proof, "ctx")) << "bit=" << bit;
  }
}

TYPED_TEST(OrProveIdentityTest, BatchMatchesPerProofReference) {
  using G = TypeParam;
  using S = typename G::Scalar;
  Pedersen<G> ped;
  SecureRng setup("or-ref-batch-" + G::Name());
  constexpr size_t kCount = 6;
  std::vector<typename G::Element> cs;
  std::vector<int> bits;
  std::vector<S> rs;
  for (size_t i = 0; i < kCount; ++i) {
    bits.push_back(static_cast<int>((i / 2) % 2));
    rs.push_back(S::Random(setup));
    cs.push_back(ped.Commit(S::FromU64(static_cast<uint64_t>(bits.back())), rs.back()));
  }
  SecureRng rng("or-ref-batch");
  SecureRng pooled_rng("or-ref-batch");
  SecureRng ref_rng("or-ref-batch");
  ThreadPool pool(2);
  auto proofs = OrProveBatch(ped, cs, bits, rs, rng, "batch");
  auto pooled = OrProveBatch(ped, cs, bits, rs, pooled_rng, "batch", &pool);
  ASSERT_EQ(proofs.size(), kCount);
  ASSERT_EQ(pooled.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    SecureRng child = ref_rng.Fork("or-batch/" + std::to_string(i));
    auto reference =
        ReferenceOrProve(ped, cs[i], bits[i], rs[i], child, "batch/" + std::to_string(i));
    EXPECT_EQ(proofs[i].Serialize(), reference.Serialize()) << "i=" << i;
    EXPECT_EQ(pooled[i].Serialize(), reference.Serialize()) << "i=" << i;
  }
}

}  // namespace
}  // namespace vdp
