// Totality of the public parsers against attacker-chosen lengths: a short
// input that claims 2^32 - 1 entries must be rejected before anything is
// allocated for those entries. The largest single heap request made while
// parsing is recorded by a replacement operator new and must stay small.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/audit.h"

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

using G = Ed25519Group;

constexpr uint32_t kHuge = 0xffffffffu;
constexpr size_t kSmallAllocation = 4096;

Bytes Words(std::initializer_list<uint32_t> words) {
  Writer w;
  for (uint32_t v : words) {
    w.U32(v);
  }
  return w.Take();
}

// Runs parse() and returns the largest heap request it made.
template <typename Fn>
size_t LargestAllocationDuring(Fn&& parse) {
  g_largest_request.store(0);
  parse();
  return g_largest_request.load();
}

TEST(LengthCapTest, ReaderCountBoundsByRemainingBytes) {
  Bytes data = Words({3, 0, 0, 0});  // count 3, then 12 bytes
  Reader fits(data);
  EXPECT_EQ(fits.Count(4), 3u);
  Reader too_big(data);
  EXPECT_FALSE(too_big.Count(5).has_value());  // 3 * 5 > 12
  Reader truncated(BytesView(data.data(), 2));
  EXPECT_FALSE(truncated.Count(1).has_value());
}

TEST(LengthCapTest, TranscriptCountsRejectedWithoutLargeAllocation) {
  const std::vector<std::pair<const char*, Bytes>> cases = {
      {"n uploads", Words({kHuge, 0, 0})},
      {"k provers", Words({0, kHuge, 0})},
      {"bins", Words({0, 1, kHuge})},
      {"nb coins", Words({0, 1, 1, kHuge})},
  };
  for (const auto& [what, bytes] : cases) {
    bool parsed = true;
    size_t largest = LargestAllocationDuring(
        [&] { parsed = DeserializeTranscript<G>(bytes).has_value(); });
    EXPECT_FALSE(parsed) << what;
    EXPECT_LT(largest, kSmallAllocation) << what;
  }
}

TEST(LengthCapTest, UploadCountsRejectedWithoutLargeAllocation) {
  const std::vector<std::pair<const char*, Bytes>> cases = {
      {"k rows", Words({kHuge, 1, 0})},
      {"m columns", Words({1, kHuge, 0})},
      {"k x m", Words({0x10000, 0x10000, 0})},
      {"rows without columns", Words({kHuge, 0, 0})},
      {"proof count", Words({0, 0, kHuge})},
  };
  for (const auto& [what, bytes] : cases) {
    bool parsed = true;
    size_t largest = LargestAllocationDuring(
        [&] { parsed = ClientUploadMsg<G>::Deserialize(bytes).has_value(); });
    EXPECT_FALSE(parsed) << what;
    EXPECT_LT(largest, kSmallAllocation) << what;
  }
}

TEST(LengthCapTest, EmptyTranscriptAndUploadShapesStillParse) {
  // The caps only bound counts by the bytes present; the smallest honest
  // encodings (zero entries everywhere) are unaffected.
  EXPECT_TRUE(DeserializeTranscript<G>(Words({0, 0})).has_value());
  Writer upload;
  upload.U32(0);
  upload.U32(0);
  upload.U32(0);
  upload.Blob(G::Scalar::Zero().Encode());
  EXPECT_TRUE(ClientUploadMsg<G>::Deserialize(upload.bytes()).has_value());
}

}  // namespace
}  // namespace vdp
