// The Sigma-OR proof of Cramer-Damgard-Schoenmakers (paper Appendix C):
// given a Pedersen commitment c, prove that c is in
//   LBit = { c : x in {0,1} and c = Com(x, r) }
// without revealing which bit it commits to. This is oracle O_OR of the
// paper, the workhorse of both client validation (Line 3 of Pi_Bin) and
// private-coin validation (Lines 4-6).
//
// Branch structure: c = g^x h^r, so
//   x = 0  <=>  knowledge of log_h(c)
//   x = 1  <=>  knowledge of log_h(c / g)
// The real branch runs an honest Schnorr; the other branch is simulated with
// a self-chosen sub-challenge; the sub-challenges must add to the transcript
// challenge (Figures 5 and 6 of the paper, Fiat-Shamir applied).
//
// The prover knows the opening (x, r), so it simulates from it rather than
// from c: the simulated first message h^z (c / g^{1-x})^{-e} equals
// g^{(-1)^x e} h^{z - r e}, one joint fixed-base comb. Both bits therefore
// cost one ExpH plus one Commit, and the proving time does not depend on the
// secret bit. Proving is split in two halves (BeginOrProve, FinishOrProve)
// so that batch callers can encode every first message with one shared
// inversion before hashing. OrSimulate, which has no opening, keeps the
// variable-base form.
#ifndef SRC_SIGMA_OR_PROOF_H_
#define SRC_SIGMA_OR_PROOF_H_

#include <string>
#include <vector>

#include "src/commit/pedersen.h"
#include "src/common/serialize.h"
#include "src/common/thread_pool.h"
#include "src/sigma/transcript.h"

namespace vdp {

template <PrimeOrderGroup G>
struct OrProof {
  typename G::Element a0, a1;       // per-branch Schnorr commitments (d0, d1)
  typename G::Scalar e0, e1;        // sub-challenges, e0 + e1 = e
  typename G::Scalar z0, z1;        // per-branch responses (v0, v1)

  Bytes Serialize() const {
    std::vector<Bytes> enc = EncodeAll<G>({a0, a1});
    return Serialize(enc[0], enc[1]);
  }

  // The same bytes, given the encodings of a0 and a1 (for callers that
  // encode many proofs in one batch).
  Bytes Serialize(BytesView a0_encoded, BytesView a1_encoded) const {
    Writer w;
    SerializeTo(a0_encoded, a1_encoded, [&w](BytesView piece) { w.Raw(piece); });
    return w.Take();
  }

  // The same bytes in pieces, for callers that hash them without building
  // them: sink(piece) receives SerializedSize(|a0_encoded|, |a1_encoded|)
  // bytes in order -- six blobs, each a u32 length and its contents.
  template <typename Sink>
  void SerializeTo(BytesView a0_encoded, BytesView a1_encoded, Sink&& sink) const {
    const auto blob = [&sink](BytesView field) {
      const std::array<uint8_t, 4> len = EncodeU32(static_cast<uint32_t>(field.size()));
      sink(BytesView(len.data(), len.size()));
      sink(field);
    };
    blob(a0_encoded);
    blob(a1_encoded);
    for (const typename G::Scalar* s : {&e0, &e1, &z0, &z1}) {
      const auto encoded = s->EncodeArray();
      blob(BytesView(encoded.data(), encoded.size()));
    }
  }

  static constexpr size_t SerializedSize(size_t a0_size, size_t a1_size) {
    return 6 * Reader::kMinBlobBytes + a0_size + a1_size + 4 * G::Scalar::kEncodedSize;
  }

  static std::optional<OrProof> Deserialize(BytesView data) {
    OrProof proof;
    ElementBlobs<G> elements;
    if (!proof.Frame(data, &elements) || !elements.Decode(/*pool=*/nullptr)) {
      return std::nullopt;
    }
    return proof;
  }

  // The shortest encoding that Deserialize accepts: two element blobs and
  // four scalar blobs.
  static constexpr size_t kMinEncodedBytes = 2 * kElementBlobBytes<G> + 4 * kScalarBlobBytes<G>;

  // The framing pass of Deserialize, for parsers that decode many proofs'
  // elements in one batch: checks the layout, decodes the four scalars and
  // adds the blobs of a0 and a1, with their slots in *this, to `elements`.
  // `data` must outlive the decode.
  bool Frame(BytesView data, ElementBlobs<G>* elements) {
    Reader r(data);
    auto a0b = r.BlobView();
    auto a1b = r.BlobView();
    auto e0b = r.BlobView();
    auto e1b = r.BlobView();
    auto z0b = r.BlobView();
    auto z1b = r.BlobView();
    if (!a0b || !a1b || !e0b || !e1b || !z0b || !z1b || !r.AtEnd()) {
      return false;
    }
    auto e0s = G::Scalar::Decode(*e0b);
    auto e1s = G::Scalar::Decode(*e1b);
    auto z0s = G::Scalar::Decode(*z0b);
    auto z1s = G::Scalar::Decode(*z1b);
    if (!e0s || !e1s || !z0s || !z1s) {
      return false;
    }
    e0 = *e0s;
    e1 = *e1s;
    z0 = *z0s;
    z1 = *z1s;
    elements->Add(*a0b, &a0);
    elements->Add(*a1b, &a1);
    return true;
  }
};

// The Fiat-Shamir challenge for an OR proof with branch commitments a0, a1 on
// statement c, given their canonical encodings. The single definition of the
// transcript schedule, shared by the prover, the per-proof verifier, and the
// batch verifier (src/batch/batch_or_proof.h) -- they must never drift apart.
template <PrimeOrderGroup G>
typename G::Scalar OrChallenge(const Pedersen<G>& ped, BytesView c, BytesView a0, BytesView a1,
                               const std::string& context) {
  Transcript t("vdp/or-proof");
  t.Append("context", StrView(context));
  t.Append("g", ped.encoded_g());
  t.Append("h", ped.encoded_h());
  t.Append("c", c);
  t.Append("a0", a0);
  t.Append("a1", a1);
  return t.template ChallengeScalar<typename G::Scalar>("e");
}

// The same challenge from elements: c, a0 and a1 are encoded in one batch
// (one shared inversion on curve groups).
template <PrimeOrderGroup G>
typename G::Scalar OrChallenge(const Pedersen<G>& ped, const typename G::Element& c,
                               const typename G::Element& a0, const typename G::Element& a1,
                               const std::string& context) {
  std::vector<Bytes> enc = EncodeAll<G>({c, a0, a1});
  return OrChallenge(ped, enc[0], enc[1], enc[2], context);
}

// Encodes (c, a0, a1) of every proof in one batch -- one shared inversion on
// curve groups. Entries 3i, 3i+1 and 3i+2 belong to proof i.
template <PrimeOrderGroup G>
std::vector<Bytes> EncodeOrMessages(const std::vector<typename G::Element>& cs,
                                    const std::vector<OrProof<G>>& proofs) {
  std::vector<typename G::Element> es;
  es.reserve(3 * cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    es.push_back(cs[i]);
    es.push_back(proofs[i].a0);
    es.push_back(proofs[i].a1);
  }
  return EncodeAll<G>(es);
}

// First half of proving c = Com(bit, r): draws the real branch's nonce k and
// the simulated branch's (e, z), in that order, and fills in a0, a1 and the
// simulated branch. Returns k for FinishOrProve. Both bits run the same
// operations; only which slot receives which result depends on the bit.
template <PrimeOrderGroup G>
typename G::Scalar BeginOrProve(const Pedersen<G>& ped, int bit, const typename G::Scalar& r,
                                SecureRng& rng, OrProof<G>* proof) {
  using S = typename G::Scalar;
  S k = S::Random(rng);
  S e_sim = S::Random(rng);
  S z_sim = S::Random(rng);
  // Simulated branch (1 - bit) on statement c / g^{1-bit}:
  //   h^{z_sim} (c / g^{1-bit})^{-e_sim} = g^{+-e_sim} h^{z_sim - r e_sim},
  // with +e_sim when bit = 0 (statement c/g) and -e_sim when bit = 1 (c).
  const S neg_e_sim = -e_sim;
  const typename G::Element real = ped.ExpH(k);
  const typename G::Element simulated =
      ped.Commit(bit == 0 ? e_sim : neg_e_sim, z_sim - r * e_sim);
  if (bit == 0) {
    proof->a0 = real;
    proof->a1 = simulated;
    proof->e1 = e_sim;
    proof->z1 = z_sim;
  } else {
    proof->a0 = simulated;
    proof->a1 = real;
    proof->e0 = e_sim;
    proof->z0 = z_sim;
  }
  return k;
}

// Second half: given the challenge e, fills in the real branch's
// sub-challenge and response.
template <PrimeOrderGroup G>
void FinishOrProve(int bit, const typename G::Scalar& r, const typename G::Scalar& k,
                   const typename G::Scalar& e, OrProof<G>* proof) {
  if (bit == 0) {
    proof->e0 = e - proof->e1;
    proof->z0 = k + proof->e0 * r;
  } else {
    proof->e1 = e - proof->e0;
    proof->z1 = k + proof->e1 * r;
  }
}

// Proves c = Com(bit, r) with bit in {0,1}. The caller must pass the true
// opening; the proof reveals nothing about which branch was real.
template <PrimeOrderGroup G>
OrProof<G> OrProve(const Pedersen<G>& ped, const typename G::Element& c, int bit,
                   const typename G::Scalar& r, SecureRng& rng,
                   const std::string& context = "") {
  OrProof<G> proof;
  const typename G::Scalar k = BeginOrProve(ped, bit, r, rng, &proof);
  FinishOrProve(bit, r, k, OrChallenge(ped, c, proof.a0, proof.a1, context), &proof);
  return proof;
}

// Checks an OR proof against an explicit challenge e: the sub-challenges
// must add to e and both branch equations must hold. OrVerify supplies the
// Fiat-Shamir e; interactive and simulated transcripts supply their own.
template <PrimeOrderGroup G>
bool OrVerifyWithChallenge(const Pedersen<G>& ped, const typename G::Element& c,
                           const OrProof<G>& proof, const typename G::Scalar& e) {
  using Ac = typename G::Accel;
  if (proof.e0 + proof.e1 != e) {
    return false;
  }
  // Branch 0: h^z0 == a0 * c^e0.
  if (ped.ExpH(proof.z0) != G::Mul(proof.a0, G::Exp(c, proof.e0))) {
    return false;
  }
  // Branch 1: h^z1 == a1 * (c/g)^e1, rearranged (multiply both sides by
  // g^e1) to h^z1 * g^e1 == a1 * c^e1 -- same decision, no group inversion,
  // and the left side is two fixed-base comb lookups merged in the kernel.
  auto lhs = Ac::Lower(Ac::Add(ped.h_table().ExpAccum(proof.z1),
                               ped.g_table().ExpAccum(proof.e1)));
  return lhs == G::Mul(proof.a1, G::Exp(c, proof.e1));
}

// Verifies a Fiat-Shamir OR proof against commitment c.
template <PrimeOrderGroup G>
bool OrVerify(const Pedersen<G>& ped, const typename G::Element& c, const OrProof<G>& proof,
              const std::string& context = "") {
  return OrVerifyWithChallenge(ped, c, proof, OrChallenge(ped, c, proof.a0, proof.a1, context));
}

// Honest-verifier zero-knowledge simulator for the *interactive* protocol:
// given any commitment c (of unknown opening) and a chosen challenge e,
// produces an accepting transcript distributed identically to a real one.
// This is the machinery behind the paper's Theorem 4.1 ZK proof; tests use
// it to check that transcripts leak nothing about the committed bit.
template <PrimeOrderGroup G>
OrProof<G> OrSimulate(const Pedersen<G>& ped, const typename G::Element& c,
                      const typename G::Scalar& e, SecureRng& rng) {
  using S = typename G::Scalar;
  OrProof<G> proof;
  proof.e0 = S::Random(rng);
  proof.e1 = e - proof.e0;
  proof.z0 = S::Random(rng);
  proof.z1 = S::Random(rng);
  proof.a0 = G::Mul(ped.ExpH(proof.z0), G::Exp(c, -proof.e0));
  auto target1 = Div<G>(c, ped.params().g);
  proof.a1 = G::Mul(ped.ExpH(proof.z1), G::Exp(target1, -proof.e1));
  return proof;
}

// Batch proving/verification across a thread pool. Proof i covers
// commitment i; context disambiguates protocol sessions. These are the batch
// paths Table 1 and Figures 3-4 measure. Proving runs both halves on the
// pool, with one batch encoding of every first message between them.
template <PrimeOrderGroup G>
std::vector<OrProof<G>> OrProveBatch(const Pedersen<G>& ped,
                                     const std::vector<typename G::Element>& cs,
                                     const std::vector<int>& bits,
                                     const std::vector<typename G::Scalar>& rs, SecureRng& rng,
                                     const std::string& context, ThreadPool* pool = nullptr) {
  const size_t n = cs.size();
  std::vector<OrProof<G>> proofs(n);
  // Fork one deterministic child RNG per proof up front (SecureRng is not
  // thread-safe).
  std::vector<SecureRng> rngs;
  rngs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rngs.push_back(rng.Fork("or-batch/" + std::to_string(i)));
  }
  std::vector<typename G::Scalar> ks(n);
  ForEachIndex(pool, n, [&](size_t i) {
    ks[i] = BeginOrProve(ped, bits[i], rs[i], rngs[i], &proofs[i]);
  });
  const std::vector<Bytes> enc = EncodeOrMessages(cs, proofs);
  ForEachIndex(pool, n, [&](size_t i) {
    const auto e = OrChallenge(ped, enc[3 * i], enc[3 * i + 1], enc[3 * i + 2],
                               context + "/" + std::to_string(i));
    FinishOrProve(bits[i], rs[i], ks[i], e, &proofs[i]);
  });
  return proofs;
}

template <PrimeOrderGroup G>
bool OrVerifyBatch(const Pedersen<G>& ped, const std::vector<typename G::Element>& cs,
                   const std::vector<OrProof<G>>& proofs, const std::string& context,
                   ThreadPool* pool = nullptr) {
  if (cs.size() != proofs.size()) {
    return false;
  }
  std::vector<uint8_t> ok(cs.size(), 0);
  ForEachIndex(pool, cs.size(), [&](size_t i) {
    ok[i] = OrVerify(ped, cs[i], proofs[i], context + "/" + std::to_string(i)) ? 1 : 0;
  });
  for (uint8_t v : ok) {
    if (v == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace vdp

#endif  // SRC_SIGMA_OR_PROOF_H_
