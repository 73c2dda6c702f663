// The bulk element decode behind DeserializeTranscript and UploadsFromWire:
// both parsers frame their input on the calling thread and then decode every
// group element with ElementBlobs::Decode, inline or on a pool. Whatever the pool,
// they must accept and reject exactly what a serial parser that decodes each
// element the moment it is framed accepts and rejects, and parse it to the
// same values.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/audit.h"
#include "src/wire/wire_convert.h"
#include "tests/group/ed25519_torsion_util.h"

namespace vdp {
namespace {

// Encodings of the right width that strict decode must reject, per group:
// one on the curve (or in Z_p*) but outside the prime-order subgroup, and
// one that is no group element at all.
template <typename G>
struct BadEncodings;

template <>
struct BadEncodings<Ed25519Group> {
  static Bytes OffSubgroup(const Ed25519Group::Element& e) {
    return testing_util::EncodeShiftedByOrder8(e);
  }
  // The smallest y whose x^2 = (y^2 - 1) / (d y^2 + 1) has no root.
  static Bytes OffCurve() {
    for (uint64_t y_small = 2;; ++y_small) {
      Fe25519 y = Fe25519::FromU64(y_small);
      Fe25519 yy = Fe25519::Square(y);
      if (!Fe25519::SqrtRatio(Fe25519::Sub(yy, Fe25519::One()),
                              Fe25519::Add(Fe25519::Mul(Ed25519Group::D(), yy), Fe25519::One()))
               .has_value()) {
        Bytes out(Ed25519Group::kElementSize, 0);
        for (size_t i = 0; i < 8; ++i) {
          out[i] = static_cast<uint8_t>(y_small >> (8 * i));
        }
        return out;
      }
    }
  }
};

template <>
struct BadEncodings<ModP256> {
  // p - 1 has order 2: in Z_p*, outside the order-q subgroup.
  static Bytes OffSubgroup(const ModP256::Element&) {
    Bytes out = ModP256Params().p.ToBytesBe();
    out.back() = static_cast<uint8_t>(out.back() - 1);  // p is odd
    return out;
  }
  // p itself is out of range.
  static Bytes OffCurve() { return ModP256Params().p.ToBytesBe(); }
};

// --- the serial reference parser -------------------------------------------

template <PrimeOrderGroup G>
std::optional<OrProof<G>> SerialProof(BytesView data) {
  Reader r(data);
  auto a0 = r.Blob();
  auto a1 = r.Blob();
  auto e0 = r.Blob();
  auto e1 = r.Blob();
  auto z0 = r.Blob();
  auto z1 = r.Blob();
  if (!a0 || !a1 || !e0 || !e1 || !z0 || !z1 || !r.AtEnd()) {
    return std::nullopt;
  }
  auto a0e = G::Decode(*a0);
  auto a1e = G::Decode(*a1);
  auto e0s = G::Scalar::Decode(*e0);
  auto e1s = G::Scalar::Decode(*e1);
  auto z0s = G::Scalar::Decode(*z0);
  auto z1s = G::Scalar::Decode(*z1);
  if (!a0e || !a1e || !e0s || !e1s || !z0s || !z1s) {
    return std::nullopt;
  }
  return OrProof<G>{*a0e, *a1e, *e0s, *e1s, *z0s, *z1s};
}

template <PrimeOrderGroup G>
std::optional<ClientUploadMsg<G>> SerialUpload(BytesView data) {
  Reader r(data);
  auto k = r.U32();
  auto m = r.U32();
  if (!k || !m || (*m == 0 && *k != 0) ||
      uint64_t{*k} * *m > r.remaining() / Reader::kMinBlobBytes) {
    return std::nullopt;
  }
  ClientUploadMsg<G> msg;
  msg.commitments.resize(*k);
  for (auto& row : msg.commitments) {
    for (uint32_t j = 0; j < *m; ++j) {
      auto blob = r.Blob();
      auto e = blob ? G::Decode(*blob) : std::nullopt;
      if (!e) {
        return std::nullopt;
      }
      row.push_back(*e);
    }
  }
  auto proofs = r.Count(Reader::kMinBlobBytes);
  if (!proofs) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *proofs; ++i) {
    auto blob = r.Blob();
    auto p = blob ? SerialProof<G>(*blob) : std::nullopt;
    if (!p) {
      return std::nullopt;
    }
    msg.bin_proofs.push_back(*p);
  }
  auto sum_blob = r.Blob();
  auto sum = sum_blob ? G::Scalar::Decode(*sum_blob) : std::nullopt;
  if (!sum || !r.AtEnd()) {
    return std::nullopt;
  }
  msg.sum_randomness = *sum;
  return msg;
}

template <PrimeOrderGroup G>
std::optional<PublicTranscript<G>> SerialTranscript(BytesView data) {
  Reader r(data);
  PublicTranscript<G> t;
  auto n = r.Count(Reader::kMinBlobBytes);
  if (!n) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *n; ++i) {
    auto blob = r.Blob();
    auto upload = blob ? SerialUpload<G>(*blob) : std::nullopt;
    if (!upload) {
      return std::nullopt;
    }
    t.client_uploads.push_back(std::move(*upload));
  }
  auto k = r.Count(4 + Reader::kMinBlobBytes);
  if (!k) {
    return std::nullopt;
  }
  for (uint32_t p = 0; p < *k; ++p) {
    auto bins = r.Count(4);
    if (!bins) {
      return std::nullopt;
    }
    ProverCoinsMsg<G> coins;
    std::vector<std::vector<bool>> bits(*bins);
    coins.coin_commitments.resize(*bins);
    coins.coin_proofs.resize(*bins);
    for (uint32_t bin = 0; bin < *bins; ++bin) {
      auto nb = r.Count(2 * Reader::kMinBlobBytes + 1);
      if (!nb) {
        return std::nullopt;
      }
      for (uint32_t j = 0; j < *nb; ++j) {
        auto cblob = r.Blob();
        auto pblob = r.Blob();
        auto bit = r.U8();
        if (!cblob || !pblob || !bit || *bit > 1) {
          return std::nullopt;
        }
        auto c = G::Decode(*cblob);
        auto proof = SerialProof<G>(*pblob);
        if (!c || !proof) {
          return std::nullopt;
        }
        coins.coin_commitments[bin].push_back(*c);
        coins.coin_proofs[bin].push_back(*proof);
        bits[bin].push_back(*bit == 1);
      }
    }
    auto oblob = r.Blob();
    auto output = oblob ? ProverOutputMsg<G>::Deserialize(*oblob) : std::nullopt;
    if (!output) {
      return std::nullopt;
    }
    t.prover_coins.push_back(std::move(coins));
    t.public_bits.push_back(std::move(bits));
    t.prover_outputs.push_back(std::move(*output));
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return t;
}

// --- fixtures ----------------------------------------------------------------

template <PrimeOrderGroup G>
struct Recorded {
  PublicTranscript<G> transcript;
  Bytes wire;
};

// One honest round: three clients, two provers, two bins.
template <PrimeOrderGroup G>
Recorded<G> RunRecorded() {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.num_bins = 2;
  config.session_id = "bulk-decode-test";
  Pedersen<G> ped;
  SecureRng rng("bulk-decode");
  SecureRng crng = rng.Fork("clients");
  std::vector<ClientBundle<G>> clients;
  for (size_t i = 0; i < 3; ++i) {
    clients.push_back(MakeClientBundle<G>(static_cast<uint32_t>(i % config.num_bins), i,
                                          config, ped, crng));
  }
  std::vector<std::unique_ptr<Prover<G>>> owned;
  std::vector<Prover<G>*> provers;
  for (size_t k = 0; k < config.num_provers; ++k) {
    owned.push_back(std::make_unique<Prover<G>>(k, config, ped,
                                                rng.Fork("p" + std::to_string(k))));
    provers.push_back(owned.back().get());
  }
  SecureRng vrng = rng.Fork("verifier");
  Recorded<G> rec;
  ProtocolResult result =
      RunProtocol(config, ped, clients, provers, vrng, nullptr, &rec.transcript);
  EXPECT_TRUE(result.accepted());
  rec.wire = SerializeTranscript(rec.transcript);
  return rec;
}

// `wire` with the one occurrence of e's encoding replaced by `replacement`.
template <PrimeOrderGroup G>
Bytes ReplaceElement(const Bytes& wire, const typename G::Element& e, const Bytes& replacement) {
  const Bytes enc = G::Encode(e);
  EXPECT_EQ(replacement.size(), enc.size());
  auto at = std::search(wire.begin(), wire.end(), enc.begin(), enc.end());
  EXPECT_NE(at, wire.end());
  EXPECT_EQ(std::search(at + 1, wire.end(), enc.begin(), enc.end()), wire.end());
  Bytes out = wire;
  std::copy(replacement.begin(), replacement.end(), out.begin() + (at - wire.begin()));
  return out;
}

template <typename G>
class BulkDecodeTest : public ::testing::Test {
 protected:
  // Inline, then on a pool of three workers.
  std::vector<ThreadPool*> Pools() { return {nullptr, &pool_}; }

  // The bulk parser must agree with the serial one on `bytes`, for every
  // pool; returns whether it parsed.
  bool ExpectAgreesWithSerial(const Bytes& bytes) {
    auto serial = SerialTranscript<G>(bytes);
    for (ThreadPool* pool : Pools()) {
      auto bulk = audit_internal::DeserializeTranscript<G>(bytes, pool);
      EXPECT_EQ(bulk.has_value(), serial.has_value()) << "pool " << (pool != nullptr);
      if (bulk.has_value() && serial.has_value()) {
        EXPECT_EQ(SerializeTranscript(*bulk), SerializeTranscript(*serial));
      }
    }
    return serial.has_value();
  }

  ThreadPool pool_{3};
};

using Groups = ::testing::Types<ModP256, Ed25519Group>;
TYPED_TEST_SUITE(BulkDecodeTest, Groups);

TYPED_TEST(BulkDecodeTest, DecodeFillsEverySlotOrReportsFailure) {
  using G = TypeParam;
  SecureRng rng("decode-all");
  std::vector<typename G::Element> want;
  std::vector<Bytes> encoded;
  for (int i = 0; i < 40; ++i) {
    want.push_back(G::ExpG(G::Scalar::Random(rng)));
    encoded.push_back(G::Encode(want.back()));
  }
  const Bytes off_curve = BadEncodings<G>::OffCurve();
  for (ThreadPool* pool : this->Pools()) {
    std::vector<typename G::Element> got(want.size());
    ElementBlobs<G> good;
    ElementBlobs<G> bad;
    for (size_t i = 0; i < want.size(); ++i) {
      good.Add(encoded[i], &got[i]);
      bad.Add(i == 37 ? BytesView(off_curve) : BytesView(encoded[i]), &got[i]);
    }
    EXPECT_TRUE(good.Decode(pool));
    EXPECT_EQ(got, want);
    EXPECT_TRUE(ElementBlobs<G>().Decode(pool));
    EXPECT_TRUE(bad.Decode(0, 37, pool));
    EXPECT_TRUE(bad.Decode(38, want.size(), pool));
    EXPECT_FALSE(bad.Decode(30, 38, pool));
    EXPECT_FALSE(bad.Decode(pool));
  }
}

TYPED_TEST(BulkDecodeTest, RealTranscriptRoundTrips) {
  using G = TypeParam;
  const Recorded<G> rec = RunRecorded<G>();
  for (ThreadPool* pool : this->Pools()) {
    auto parsed = audit_internal::DeserializeTranscript<G>(rec.wire, pool);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(SerializeTranscript(*parsed), rec.wire);
    EXPECT_EQ(parsed->public_bits, rec.transcript.public_bits);
  }
  auto parsed = DeserializeTranscript<G>(rec.wire);  // on GlobalPool()
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(SerializeTranscript(*parsed), rec.wire);
  EXPECT_TRUE(this->ExpectAgreesWithSerial(rec.wire));
}

// An upload commitment moved off the subgroup and, later in the transcript,
// the last coin commitment replaced by a non-element: rejected together and
// each on its own.
TYPED_TEST(BulkDecodeTest, OffSubgroupThenOffCurveRejected) {
  using G = TypeParam;
  const Recorded<G> rec = RunRecorded<G>();
  const auto& early = rec.transcript.client_uploads[1].commitments[1][0];
  const auto& late = rec.transcript.prover_coins.back().coin_commitments.back().back();
  const Bytes torsion = ReplaceElement<G>(rec.wire, early, BadEncodings<G>::OffSubgroup(early));
  const Bytes off_curve = ReplaceElement<G>(rec.wire, late, BadEncodings<G>::OffCurve());
  const Bytes both = ReplaceElement<G>(torsion, late, BadEncodings<G>::OffCurve());
  for (const Bytes* bytes : {&torsion, &off_curve, &both}) {
    EXPECT_EQ(bytes->size(), rec.wire.size());
    for (ThreadPool* pool : this->Pools()) {
      EXPECT_FALSE(audit_internal::DeserializeTranscript<G>(*bytes, pool).has_value());
    }
    EXPECT_FALSE(DeserializeTranscript<G>(*bytes).has_value());
    EXPECT_FALSE(this->ExpectAgreesWithSerial(*bytes));
  }
}

// Bit flips anywhere in a real transcript, and element-sized windows of
// random bytes written over it: the bulk parser accepts exactly what the
// serial one accepts.
TYPED_TEST(BulkDecodeTest, CorruptedTranscriptsAgreeWithSerialParser) {
  using G = TypeParam;
  const Recorded<G> rec = RunRecorded<G>();
  SecureRng rng("bulk-decode-corpus");
  size_t parsed = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 60; ++iter) {
    Bytes corrupted = rec.wire;
    const size_t byte = rng.UniformBelow(corrupted.size());
    corrupted[byte] = static_cast<uint8_t>(corrupted[byte] ^ (1u << rng.UniformBelow(8)));
    (this->ExpectAgreesWithSerial(corrupted) ? parsed : rejected) += 1;
  }
  const size_t width = G::Encode(G::Generator()).size();
  for (int iter = 0; iter < 30; ++iter) {
    Bytes corrupted = rec.wire;
    const Bytes soup = rng.RandomBytes(width);
    const size_t at = rng.UniformBelow(corrupted.size() - width);
    std::copy(soup.begin(), soup.end(), corrupted.begin() + at);
    (this->ExpectAgreesWithSerial(corrupted) ? parsed : rejected) += 1;
  }
  for (int iter = 0; iter < 200; ++iter) {
    this->ExpectAgreesWithSerial(rng.RandomBytes(rng.UniformBelow(96)));
  }
  // A flip in a scalar's top bit or in a proof's unused slack can still
  // parse; most corruptions cannot. Both outcomes must be exercised.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// A shard task whose first, middle and last uploads are malformed (an
// element off the subgroup, a truncation, a non-element) and whose others
// are honest: the bulk path empties exactly the uploads that the per-upload
// parser rejects, and decodes the rest to the same values.
TYPED_TEST(BulkDecodeTest, UploadsFromWireMatchesPerUploadParse) {
  using G = TypeParam;
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.num_bins = 2;
  config.session_id = "bulk-decode-wire";
  Pedersen<G> ped;
  SecureRng rng("bulk-decode-wire");
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 7; ++i) {
    uploads.push_back(
        MakeClientBundle<G>(static_cast<uint32_t>(i % 2), i, config, ped, rng).upload);
  }
  wire::WireShardTask task =
      wire::MakeShardTask<G>(Sha256::Digest{}, /*shard_index=*/0, /*base=*/0,
                             /*compute_products=*/true, uploads.data(), uploads.size());
  const auto& first = uploads[0].commitments[1][1];
  task.uploads[0] =
      ReplaceElement<G>(task.uploads[0], first, BadEncodings<G>::OffSubgroup(first));
  task.uploads[3].resize(task.uploads[3].size() - 5);
  const auto& last = uploads[6].bin_proofs[1].a1;
  task.uploads[6] = ReplaceElement<G>(task.uploads[6], last, BadEncodings<G>::OffCurve());

  for (ThreadPool* pool : this->Pools()) {
    std::vector<ClientUploadMsg<G>> bulk = wire::convert_internal::UploadsFromWire<G>(task, pool);
    ASSERT_EQ(bulk.size(), task.uploads.size());
    for (size_t i = 0; i < bulk.size(); ++i) {
      auto one = ClientUploadMsg<G>::Deserialize(task.uploads[i]);
      const bool malformed = i == 0 || i == 3 || i == 6;
      EXPECT_EQ(one.has_value(), !malformed) << i;
      EXPECT_EQ(bulk[i].Serialize(), (one ? *one : ClientUploadMsg<G>{}).Serialize()) << i;
      if (!malformed) {
        EXPECT_EQ(bulk[i].Serialize(), task.uploads[i]) << i;
      }
    }
  }
  std::vector<ClientUploadMsg<G>> global = wire::UploadsFromWire<G>(task);  // on GlobalPool()
  ASSERT_EQ(global.size(), task.uploads.size());
  EXPECT_TRUE(global[0].commitments.empty());
  EXPECT_EQ(global[1].Serialize(), task.uploads[1]);
  EXPECT_TRUE(global[6].commitments.empty());
}

}  // namespace
}  // namespace vdp
