// Differential test of the lockstep decoder: Ed25519Group::DecodeBatch, and
// ElementBlobs, which hands it fixed-size chunks, must give exactly the
// verdict and the element of a one-at-a-time Decode for every entry. The
// corpus is that of ed25519_decode_fuzz_test -- random strings with both
// sign bits, non-canonical y, -0, the order-2 point, members shifted into
// every torsion coset -- plus wrong lengths; each kind of rejected entry is
// placed at every lane 0-7 of a chunk of members, and across a chunk
// boundary.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/group/group.h"
#include "tests/group/ed25519_torsion_util.h"

namespace vdp {
namespace {

using G = Ed25519Group;
using A = G::Accel;

Bytes LittleEndian(const BigInt<4>& v) {
  Bytes out(32);
  for (size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(v.limb[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

// Encodings Decode rejects, each for a different reason.
std::vector<std::pair<std::string, Bytes>> Rejects() {
  std::vector<std::pair<std::string, Bytes>> out;
  // y + p for small y: a non-canonical field encoding.
  BigInt<4> y_plus_p = Fe25519::P();
  BigInt<4>::AddInto(y_plus_p, y_plus_p, BigInt<4>::FromU64(5));
  out.emplace_back("non-canonical y", LittleEndian(y_plus_p));
  // -0: the identity's y with the sign bit set.
  Bytes minus_zero(32, 0);
  minus_zero[0] = 1;
  minus_zero[31] = 0x80;
  out.emplace_back("-0", minus_zero);
  // (0, -1), of order 2, and its -0 twin.
  BigInt<4> p_minus_1;
  BigInt<4>::SubInto(p_minus_1, Fe25519::P(), BigInt<4>::One());
  Bytes order2 = LittleEndian(p_minus_1);
  out.emplace_back("order 2", order2);
  order2[31] |= 0x80;
  out.emplace_back("order 2, -0", order2);
  // The smallest y whose (y^2 - 1) / (d y^2 + 1) is not a square: no x.
  for (uint64_t y = 2;; ++y) {
    const Fe25519 yy = Fe25519::Square(Fe25519::FromU64(y));
    if (!Fe25519::SqrtRatio(Fe25519::Sub(yy, Fe25519::One()),
                            Fe25519::Add(Fe25519::Mul(G::D(), yy), Fe25519::One()))) {
      out.emplace_back("off curve", LittleEndian(BigInt<4>::FromU64(y)));
      break;
    }
  }
  out.emplace_back("31 bytes", Bytes(31, 0));
  out.emplace_back("33 bytes", Bytes(33, 0));
  // The generator moved into each non-trivial torsion coset.
  A::P shifted = A::Lift(G::Generator());
  for (int k = 1; k < 8; ++k) {
    shifted = A::Add(shifted, testing_util::Order8Point());
    out.emplace_back("coset " + std::to_string(k), G::Encode(A::Lower(shifted)));
  }
  return out;
}

std::vector<Bytes> Members(size_t n, SecureRng& rng) {
  std::vector<Bytes> out = {G::Encode(G::Identity()), G::Encode(G::Generator())};
  while (out.size() < n) {
    out.push_back(G::Encode(G::ExpG(G::Scalar::Random(rng))));
  }
  out.resize(n);
  return out;
}

// DecodeBatch over `encs` agrees entry by entry with Decode.
void ExpectBatchMatchesDecode(const std::vector<Bytes>& encs, const std::string& what) {
  const size_t n = encs.size();
  std::vector<BytesView> views(encs.begin(), encs.end());
  std::vector<G::Element> elements(n, G::Generator());
  std::vector<G::Element*> slots;
  for (auto& e : elements) {
    slots.push_back(&e);
  }
  std::unique_ptr<bool[]> ok(new bool[n]);
  G::DecodeBatch(views.data(), n, slots.data(), ok.get());
  for (size_t i = 0; i < n; ++i) {
    auto want = G::Decode(encs[i]);
    ASSERT_EQ(ok[i], want.has_value()) << what << ", entry " << i;
    if (want.has_value()) {
      EXPECT_TRUE(elements[i] == *want) << what << ", entry " << i;
      EXPECT_EQ(G::Encode(elements[i]), encs[i]) << what << ", entry " << i;
    }
  }
}

TEST(Ed25519DecodeBatchTest, EachRejectAtEveryLane) {
  SecureRng rng("decode-batch-lanes");
  const std::vector<Bytes> members = Members(8, rng);
  for (const auto& [what, bad] : Rejects()) {
    ASSERT_FALSE(G::Decode(bad).has_value()) << what;
    for (size_t lane = 0; lane < 8; ++lane) {
      std::vector<Bytes> encs = members;
      encs[lane] = bad;
      ExpectBatchMatchesDecode(encs, what + " at lane " + std::to_string(lane));
    }
  }
}

TEST(Ed25519DecodeBatchTest, RejectsAcrossAChunkBoundary) {
  SecureRng rng("decode-batch-boundary");
  const auto rejects = Rejects();
  for (size_t n : {9u, 16u, 21u}) {
    std::vector<Bytes> encs = Members(n, rng);
    encs[7] = rejects[0].second;
    encs[8] = rejects.back().second;
    ExpectBatchMatchesDecode(encs, "n=" + std::to_string(n));
  }
}

TEST(Ed25519DecodeBatchTest, RandomStringsWithBothSigns) {
  SecureRng rng("decode-batch-random");
  std::vector<Bytes> encs;
  for (int i = 0; i < 1500; ++i) {
    Bytes raw = rng.RandomBytes(32);
    for (int sign = 0; sign < 2; ++sign) {
      raw[31] = static_cast<uint8_t>((raw[31] & 0x7f) | (sign << 7));
      encs.push_back(raw);
    }
  }
  // A few members among them so that accepted lanes meet failing ones.
  for (Bytes& m : Members(200, rng)) {
    encs.insert(encs.begin() + static_cast<long>(rng.UniformBelow(encs.size())), std::move(m));
  }
  ExpectBatchMatchesDecode(encs, "random strings");
}

// The bulk path: ElementBlobs chunks, inline and on a pool, with the
// per-entry verdicts of DecodeEach and the all-or-nothing Decode.
TEST(Ed25519DecodeBatchTest, ElementBlobsVerdictsPerEntry) {
  SecureRng rng("decode-batch-blobs");
  const auto rejects = Rejects();
  std::vector<Bytes> encs = Members(37, rng);
  const std::vector<size_t> bad_at = {0, 7, 8, 15, 23, 36};
  for (size_t k = 0; k < bad_at.size(); ++k) {
    encs[bad_at[k]] = rejects[k % rejects.size()].second;
  }
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<G::Element> elements(encs.size());
    ElementBlobs<G> blobs;
    for (size_t i = 0; i < encs.size(); ++i) {
      blobs.Add(encs[i], &elements[i]);
    }
    std::vector<uint8_t> failed(encs.size(), 2);
    blobs.DecodeEach(0, encs.size(), p, failed.data());
    for (size_t i = 0; i < encs.size(); ++i) {
      auto want = G::Decode(encs[i]);
      EXPECT_EQ(failed[i], want.has_value() ? 0 : 1) << "entry " << i;
      if (want.has_value()) {
        EXPECT_EQ(G::Encode(elements[i]), encs[i]) << "entry " << i;
      }
    }
    // A window that starts mid-chunk and holds no reject decodes whole.
    EXPECT_TRUE(blobs.Decode(9, 15, p));
    EXPECT_TRUE(blobs.Decode(16, 23, p));
    EXPECT_FALSE(blobs.Decode(9, 16, p));
    EXPECT_FALSE(blobs.Decode(p));
    std::vector<uint8_t> window(6, 2);
    blobs.DecodeEach(20, 26, p, window.data());
    EXPECT_EQ(window, (std::vector<uint8_t>{0, 0, 0, 1, 0, 0}));
  }
}

}  // namespace
}  // namespace vdp
