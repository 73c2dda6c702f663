#include "src/common/sha256.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "src/common/hex.h"

namespace vdp {
namespace {

std::string HashHex(const std::string& msg) {
  auto digest = Sha256::Hash(ToBytes(msg));
  return HexEncode(BytesView(digest.data(), digest.size()));
}

// FIPS 180-4 known-answer tests.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  auto digest = h.Finalize();
  EXPECT_EQ(HexEncode(BytesView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly and at length";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(ToBytes(msg.substr(0, split)));
    h.Update(ToBytes(msg.substr(split)));
    EXPECT_EQ(h.Finalize(), Sha256::Hash(ToBytes(msg))) << "split=" << split;
  }
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise padding across the 55/56/63/64/65-byte boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 h;
    h.Update(ToBytes(msg));
    auto streamed = h.Finalize();
    EXPECT_EQ(streamed, Sha256::Hash(ToBytes(msg))) << "len=" << len;
  }
}

TEST(Sha256Test, TaggedHashSeparatesDomains) {
  Bytes msg = ToBytes("same message");
  auto a = Sha256::TaggedHash(StrView("domain-a"), msg);
  auto b = Sha256::TaggedHash(StrView("domain-b"), msg);
  EXPECT_NE(a, b);
  // And tagged differs from plain.
  EXPECT_NE(a, Sha256::Hash(msg));
}

TEST(Sha256Test, TaggedHashDeterministic) {
  Bytes msg = ToBytes("payload");
  EXPECT_EQ(Sha256::TaggedHash(StrView("d"), msg), Sha256::TaggedHash(StrView("d"), msg));
}

// --- Differential test of the two block functions --------------------------

using CompressFn = void (*)(Sha256::State&, const uint8_t*, size_t);

// SHA-256 written against one block function: the FIPS 180-4 padding done
// here, independently of Sha256::Finalize. `runs` splits the padded blocks
// into consecutive multi-block calls (empty: one call for all of them).
Sha256::Digest HashWith(CompressFn compress, BytesView msg, const std::vector<size_t>& runs = {}) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  Sha256::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t blocks = padded.size() / 64;
  size_t done = 0;
  for (size_t run : runs) {
    const size_t take = std::min(run, blocks - done);
    compress(state, padded.data() + 64 * done, take);
    done += take;
  }
  compress(state, padded.data() + 64 * done, blocks - done);
  Sha256::Digest digest;
  for (size_t i = 0; i < 8; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return digest;
}

std::string HexOf(const Sha256::Digest& d) {
  return HexEncode(BytesView(d.data(), d.size()));
}

// FIPS 180-4 / NIST example messages and their digests.
const std::vector<std::pair<std::string, std::string>>& KnownAnswers() {
  static const std::vector<std::pair<std::string, std::string>> answers = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnop"
       "qrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  return answers;
}

void ExpectKnownAnswers(CompressFn compress) {
  for (const auto& [msg, hex] : KnownAnswers()) {
    EXPECT_EQ(HexOf(HashWith(compress, ToBytes(msg))), hex) << "message length " << msg.size();
  }
}

// Random block runs summing to at least `blocks`.
std::vector<size_t> RandomRuns(std::mt19937_64& gen, size_t blocks) {
  std::vector<size_t> runs;
  for (size_t total = 0; total < blocks;) {
    runs.push_back(gen() % 4);
    total += runs.back();
  }
  return runs;
}

Bytes RandomMessage(std::mt19937_64& gen, size_t len) {
  Bytes msg(len);
  for (auto& b : msg) {
    b = static_cast<uint8_t>(gen());
  }
  return msg;
}

TEST(Sha256DifferentialTest, PortableKnownAnswers) {
  ExpectKnownAnswers(sha256_internal::CompressPortable);
}

TEST(Sha256DifferentialTest, ShaNiKnownAnswers) {
#if defined(__x86_64__)
  if (!sha256_internal::HasShaNi()) {
    GTEST_SKIP() << "this CPU has no SHA extensions; only the portable path runs";
  }
  ExpectKnownAnswers(sha256_internal::CompressShaNi);
#else
  GTEST_SKIP() << "SHA-NI is x86-64 only; only the portable path runs";
#endif
}

TEST(Sha256DifferentialTest, ShaNiMatchesPortableOnEveryLength) {
#if defined(__x86_64__)
  if (!sha256_internal::HasShaNi()) {
    GTEST_SKIP() << "this CPU has no SHA extensions; only the portable path runs";
  }
  std::mt19937_64 gen(4096);
  for (size_t len = 0; len <= 4096; ++len) {
    const Bytes msg = RandomMessage(gen, len);
    const Sha256::Digest oracle = HashWith(sha256_internal::CompressPortable, msg);
    ASSERT_EQ(HashWith(sha256_internal::CompressShaNi, msg), oracle) << "len=" << len;
    ASSERT_EQ(HashWith(sha256_internal::CompressShaNi, msg, RandomRuns(gen, len / 64 + 2)),
              oracle)
        << "len=" << len << " in block runs";
  }
#else
  GTEST_SKIP() << "SHA-NI is x86-64 only; only the portable path runs";
#endif
}

// Sha256 itself, on whichever block function this CPU selected, against the
// portable oracle: whole messages and random streaming splits.
TEST(Sha256DifferentialTest, StreamingMatchesPortableOracleOnEveryLength) {
  std::mt19937_64 gen(56);
  for (size_t len = 0; len <= 4096; ++len) {
    const Bytes msg = RandomMessage(gen, len);
    const Sha256::Digest oracle = HashWith(sha256_internal::CompressPortable, msg);
    ASSERT_EQ(Sha256::Hash(msg), oracle) << "len=" << len;
    Sha256 h;
    for (size_t pos = 0; pos < len;) {
      const size_t take = std::min<size_t>(len - pos, gen() % 150);
      h.Update(BytesView(msg.data() + pos, take));
      pos += take;
    }
    ASSERT_EQ(h.Finalize(), oracle) << "len=" << len << " streamed";
  }
}

}  // namespace
}  // namespace vdp
