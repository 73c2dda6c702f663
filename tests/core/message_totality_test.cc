// Totality of the remaining transcript-path parsers -- OrProof,
// ProverOutputMsg and ClientShareMsg -- on adversarial bytes: round trips
// are the identity, every strict prefix is rejected, random buffers and
// single-bit flips either fail cleanly or parse to a value that re-encodes to
// exactly the input, and a short input claiming 2^32 - 1 entries is rejected
// without a large allocation (recorded by a replacement operator new, as in
// length_cap_test). Every parser that sizes containers from a count --
// these three, ClientUploadMsg and DeserializeTranscript -- keeps its
// largest allocation within a small multiple of the input when the input
// holds as many bytes as the count's shortest entries need.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "src/core/audit.h"
#include "src/core/client.h"
#include "src/core/messages.h"

namespace {

std::atomic<size_t> g_largest_request{0};

}  // namespace

void* operator new(std::size_t n) {
  size_t prev = g_largest_request.load(std::memory_order_relaxed);
  while (n > prev && !g_largest_request.compare_exchange_weak(prev, n)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// GCC pairs inlined new-expressions with these and flags the free() as a
// mismatch, but this file replaces both sides of the pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace vdp {
namespace {

constexpr uint32_t kHuge = 0xffffffffu;
constexpr size_t kSmallAllocation = 4096;

Bytes Words(std::initializer_list<uint32_t> words) {
  Writer w;
  for (uint32_t v : words) {
    w.U32(v);
  }
  return w.Take();
}

template <typename Fn>
size_t LargestAllocationDuring(Fn&& parse) {
  g_largest_request.store(0);
  parse();
  return g_largest_request.load();
}

// One honest value of each message: a bin proof, a prover output and a
// client share of a two-prover, three-bin session.
template <PrimeOrderGroup G>
struct Samples {
  OrProof<G> proof;
  ProverOutputMsg<G> output;
  ClientShareMsg<G> share;
};

template <PrimeOrderGroup G>
Samples<G> MakeSamples(SecureRng& rng) {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.num_bins = 3;
  config.session_id = "message-totality";
  Pedersen<G> ped;
  ClientBundle<G> bundle = MakeClientBundle<G>(1, 0, config, ped, rng);
  Samples<G> s;
  s.proof = bundle.upload.bin_proofs[2];
  s.share = bundle.shares[1];
  for (size_t m = 0; m < config.num_bins; ++m) {
    s.output.y.push_back(G::Scalar::Random(rng));
    s.output.z.push_back(G::Scalar::Random(rng));
  }
  return s;
}

template <typename T>
void ExpectTotal(const T& value, size_t* parsed_ok, size_t* rejected) {
  const Bytes encoded = value.Serialize();
  // Round trip.
  auto parsed = T::Deserialize(encoded);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Serialize(), encoded);
  // Every strict prefix.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(T::Deserialize(BytesView(encoded.data(), len)).has_value())
        << "truncation to " << len << " bytes parsed";
  }
  // Every single-bit flip.
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupted = encoded;
      corrupted[byte] = static_cast<uint8_t>(corrupted[byte] ^ (1u << bit));
      auto decoded = T::Deserialize(corrupted);
      if (decoded.has_value()) {
        ++*parsed_ok;
        EXPECT_EQ(decoded->Serialize(), corrupted)
            << "non-canonical parse after flipping bit " << bit << " of byte " << byte;
      } else {
        ++*rejected;
      }
    }
  }
}

template <typename T>
void ExpectSoupSound(BytesView soup) {
  auto decoded = T::Deserialize(soup);
  if (decoded.has_value()) {
    EXPECT_EQ(decoded->Serialize(), Bytes(soup.begin(), soup.end()));
  }
}

template <typename G>
class MessageTotalityTest : public ::testing::Test {};

using Groups = ::testing::Types<ModP256, Ed25519Group>;
TYPED_TEST_SUITE(MessageTotalityTest, Groups);

TYPED_TEST(MessageTotalityTest, RoundTripTruncationsAndBitFlips) {
  using G = TypeParam;
  SecureRng rng("message-totality/flips");
  size_t parsed_ok = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 2; ++iter) {
    const Samples<G> s = MakeSamples<G>(rng);
    ExpectTotal(s.proof, &parsed_ok, &rejected);
    ExpectTotal(s.output, &parsed_ok, &rejected);
    ExpectTotal(s.share, &parsed_ok, &rejected);
  }
  // A flip in a scalar's or an element's encoding can land on another valid
  // value; a flip in a length prefix cannot.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

TYPED_TEST(MessageTotalityTest, EmptyMessagesRoundTrip) {
  using G = TypeParam;
  EXPECT_EQ(ProverOutputMsg<G>::Deserialize(Words({0}))->Serialize(), Words({0}));
  EXPECT_EQ(ClientShareMsg<G>::Deserialize(Words({0}))->Serialize(), Words({0}));
}

TYPED_TEST(MessageTotalityTest, RandomBufferSoupIsSound) {
  using G = TypeParam;
  SecureRng rng("message-totality/soup");
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes soup = rng.RandomBytes(rng.UniformBelow(96));
    ExpectSoupSound<OrProof<G>>(soup);
    ExpectSoupSound<ProverOutputMsg<G>>(soup);
    ExpectSoupSound<ClientShareMsg<G>>(soup);
  }
  // Soup behind a well-formed count: the loops run until the bytes run out.
  for (int iter = 0; iter < 500; ++iter) {
    Bytes soup = Words({static_cast<uint32_t>(rng.UniformBelow(4))});
    const Bytes tail = rng.RandomBytes(rng.UniformBelow(160));
    soup.insert(soup.end(), tail.begin(), tail.end());
    ExpectSoupSound<ProverOutputMsg<G>>(soup);
    ExpectSoupSound<ClientShareMsg<G>>(soup);
  }
}

TYPED_TEST(MessageTotalityTest, HugeCountsRejectedWithoutLargeAllocation) {
  using G = TypeParam;
  const std::vector<std::pair<const char*, Bytes>> cases = {
      {"huge count", Words({kHuge})},
      {"huge count, some bytes", Words({kHuge, 0, 0, 0, 0})},
      {"count beyond the bytes", Words({3, 0, 0, 0, 0})},  // 3 entries need 24 bytes
      {"huge blob length", Words({1, kHuge})},
  };
  for (const auto& [what, bytes] : cases) {
    bool parsed = true;
    size_t largest = LargestAllocationDuring(
        [&] { parsed = ProverOutputMsg<G>::Deserialize(bytes).has_value(); });
    EXPECT_FALSE(parsed) << what;
    EXPECT_LT(largest, kSmallAllocation) << what;
    largest = LargestAllocationDuring(
        [&] { parsed = ClientShareMsg<G>::Deserialize(bytes).has_value(); });
    EXPECT_FALSE(parsed) << what;
    EXPECT_LT(largest, kSmallAllocation) << what;
    largest = LargestAllocationDuring(
        [&] { parsed = OrProof<G>::Deserialize(bytes).has_value(); });
    EXPECT_FALSE(parsed) << what;
    EXPECT_LT(largest, kSmallAllocation) << what;
  }
}

// A count of N followed by exactly the N * (shortest entry) bytes that the
// count cap lets through, all zero, so the first entry fails to parse after
// the containers are sized. Pre-sizing must then cost at most `ratio` times
// the input. The entries with elements stay within 5x (an ed25519 element
// is 160 bytes in memory, 36 on the wire); an empty bin takes 4 bytes on the
// wire and a std::vector<bool> of 40 bytes, so bins bound at 12x.
TYPED_TEST(MessageTotalityTest, MinimalEntriesAllocateASmallMultipleOfTheInput) {
  using G = TypeParam;
  constexpr uint32_t kN = 4096;
  auto with_zeros = [](Bytes head, size_t zeros) {
    head.resize(head.size() + zeros, 0);
    return head;
  };
  const size_t proof_blob = Reader::kMinBlobBytes + OrProof<G>::kMinEncodedBytes;
  const size_t upload_blob = Reader::kMinBlobBytes + ClientUploadMsg<G>::kMinEncodedBytes;
  const size_t prover = 4 + Reader::kMinBlobBytes + ProverOutputMsg<G>::kMinEncodedBytes;
  const size_t coin = kElementBlobBytes<G> + proof_blob + 1;
  struct Case {
    const char* what;
    Bytes bytes;
    size_t ratio;
    std::function<bool(BytesView)> parse;
  };
  auto upload = [](BytesView b) { return ClientUploadMsg<G>::Deserialize(b).has_value(); };
  auto transcript = [](BytesView b) { return DeserializeTranscript<G>(b).has_value(); };
  const std::vector<Case> cases = {
      {"prover output", with_zeros(Words({kN}), kN * 2 * kScalarBlobBytes<G>), 5,
       [](BytesView b) { return ProverOutputMsg<G>::Deserialize(b).has_value(); }},
      {"client share", with_zeros(Words({kN}), kN * 2 * kScalarBlobBytes<G>), 5,
       [](BytesView b) { return ClientShareMsg<G>::Deserialize(b).has_value(); }},
      {"upload row", with_zeros(Words({1, kN}), kN * kElementBlobBytes<G>), 5, upload},
      {"upload column", with_zeros(Words({kN, 1}), kN * kElementBlobBytes<G>), 5, upload},
      {"upload proofs", with_zeros(Words({0, 0, kN}), kN * proof_blob), 5, upload},
      {"transcript uploads", with_zeros(Words({kN}), kN * upload_blob), 5, transcript},
      {"transcript coins", with_zeros(Words({0, 1, 1, kN}), kN * coin), 5, transcript},
      {"transcript provers", with_zeros(Words({0, kN}), kN * prover), 12, transcript},
      {"transcript bins", with_zeros(Words({0, 1, kN}), kN * 4), 12, transcript},
  };
  for (const Case& c : cases) {
    bool parsed = true;
    size_t largest = LargestAllocationDuring([&] { parsed = c.parse(c.bytes); });
    EXPECT_FALSE(parsed) << c.what;
    EXPECT_LE(largest, c.ratio * c.bytes.size()) << c.what;
    // One entry fewer bytes than the count needs: rejected before sizing.
    const BytesView short_by_one(c.bytes.data(), c.bytes.size() - 1);
    largest = LargestAllocationDuring([&] { parsed = c.parse(short_by_one); });
    EXPECT_FALSE(parsed) << c.what;
    EXPECT_LT(largest, kSmallAllocation) << c.what;
  }
}

}  // namespace
}  // namespace vdp
