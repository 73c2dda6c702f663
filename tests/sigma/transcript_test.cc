#include "src/sigma/transcript.h"

#include <gtest/gtest.h>

#include <random>

#include "src/common/serialize.h"
#include "src/group/modp_group.h"

namespace vdp {
namespace {

Bytes DigestBytes(const Sha256::Digest& d) {
  return Bytes(d.begin(), d.end());
}

TEST(TranscriptTest, DeterministicReplay) {
  Transcript a("proto");
  Transcript b("proto");
  a.Append("m", ToBytes("hello"));
  b.Append("m", ToBytes("hello"));
  EXPECT_EQ(DigestBytes(a.ChallengeBytes("e")), DigestBytes(b.ChallengeBytes("e")));
}

TEST(TranscriptTest, ProtocolLabelSeparates) {
  Transcript a("proto-a");
  Transcript b("proto-b");
  a.Append("m", ToBytes("x"));
  b.Append("m", ToBytes("x"));
  EXPECT_NE(DigestBytes(a.ChallengeBytes("e")), DigestBytes(b.ChallengeBytes("e")));
}

TEST(TranscriptTest, MessageContentMatters) {
  Transcript a("p");
  Transcript b("p");
  a.Append("m", ToBytes("x"));
  b.Append("m", ToBytes("y"));
  EXPECT_NE(DigestBytes(a.ChallengeBytes("e")), DigestBytes(b.ChallengeBytes("e")));
}

TEST(TranscriptTest, MessageLabelMatters) {
  Transcript a("p");
  Transcript b("p");
  a.Append("m1", ToBytes("x"));
  b.Append("m2", ToBytes("x"));
  EXPECT_NE(DigestBytes(a.ChallengeBytes("e")), DigestBytes(b.ChallengeBytes("e")));
}

TEST(TranscriptTest, OrderMatters) {
  Transcript a("p");
  Transcript b("p");
  a.Append("m", ToBytes("x"));
  a.Append("m", ToBytes("y"));
  b.Append("m", ToBytes("y"));
  b.Append("m", ToBytes("x"));
  EXPECT_NE(DigestBytes(a.ChallengeBytes("e")), DigestBytes(b.ChallengeBytes("e")));
}

TEST(TranscriptTest, ChallengesAreChained) {
  Transcript a("p");
  a.Append("m", ToBytes("x"));
  auto e1 = a.ChallengeBytes("e");
  auto e2 = a.ChallengeBytes("e");
  EXPECT_NE(DigestBytes(e1), DigestBytes(e2));
}

TEST(TranscriptTest, LaterChallengeDependsOnEarlierAppend) {
  Transcript a("p");
  Transcript b("p");
  a.Append("m", ToBytes("x"));
  b.Append("m", ToBytes("x"));
  (void)a.ChallengeBytes("e1");
  (void)b.ChallengeBytes("e1");
  a.Append("n", ToBytes("1"));
  b.Append("n", ToBytes("2"));
  EXPECT_NE(DigestBytes(a.ChallengeBytes("e2")), DigestBytes(b.ChallengeBytes("e2")));
}

TEST(TranscriptTest, ChallengeScalarIsReduced) {
  Transcript a("p");
  a.Append("m", ToBytes("x"));
  auto s = a.ChallengeScalar<ModP256::Scalar>("e");
  EXPECT_LT(s.value(), ModP256::Scalar::Order());
}

TEST(TranscriptTest, AppendU64Differs) {
  Transcript a("p");
  Transcript b("p");
  a.AppendU64("n", 1);
  b.AppendU64("n", 2);
  EXPECT_NE(DigestBytes(a.ChallengeBytes("e")), DigestBytes(b.ChallengeBytes("e")));
}

// The transcript's byte schedule as first written, over Writer and
// std::string copies: the oracle the streaming Transcript must match.
class WriterTranscript {
 public:
  explicit WriterTranscript(const std::string& protocol_label)
      : state_(Sha256::TaggedHash(StrView("vdp/transcript-init"), ToBytes(protocol_label))) {}

  void Append(const std::string& label, BytesView data) { Absorb(ToBytes(label), data); }

  void AppendU64(const std::string& label, uint64_t value) {
    Writer w;
    w.U64(value);
    Append(label, w.bytes());
  }

  Sha256::Digest ChallengeBytes(const std::string& label) {
    Sha256 h;
    h.Update(StrView("vdp/transcript-challenge"));
    h.Update(BytesView(state_.data(), state_.size()));
    h.Update(ToBytes(label));
    Sha256::Digest challenge = h.Finalize();
    Absorb(ToBytes(label + "/challenge"), BytesView(challenge.data(), challenge.size()));
    return challenge;
  }

 private:
  void Absorb(BytesView tag, BytesView data) {
    Sha256 h;
    h.Update(StrView("vdp/transcript-absorb"));
    h.Update(BytesView(state_.data(), state_.size()));
    Writer w;
    w.Blob(tag);
    w.Blob(data);
    h.Update(w.bytes());
    state_ = h.Finalize();
  }

  Sha256::Digest state_;
};

std::string RandomString(std::mt19937_64& gen, size_t max_len) {
  std::string s(gen() % (max_len + 1), '\0');
  for (char& c : s) {
    c = static_cast<char>(gen());
  }
  return s;
}

// Random labels and messages of 0-300 bytes, so every absorb and challenge
// crosses the 55/56/64-byte padding edges somewhere. After each step both
// transcripts are copied and probed, which compares their chained states.
TEST(TranscriptTest, MatchesWriterOracleOnRandomSchedules) {
  std::mt19937_64 gen(300);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string protocol = RandomString(gen, 300);
    Transcript t(protocol);
    WriterTranscript oracle(protocol);
    for (int step = 0; step < 12; ++step) {
      const std::string label = RandomString(gen, 300);
      switch (gen() % 3) {
        case 0: {
          const std::string data = RandomString(gen, 300);
          t.Append(label, StrView(data));
          oracle.Append(label, ToBytes(data));
          break;
        }
        case 1: {
          const uint64_t value = gen();
          t.AppendU64(label, value);
          oracle.AppendU64(label, value);
          break;
        }
        default:
          ASSERT_EQ(DigestBytes(t.ChallengeBytes(label)), DigestBytes(oracle.ChallengeBytes(label)))
              << "trial " << trial << " step " << step;
      }
      Transcript t_probe = t;
      WriterTranscript oracle_probe = oracle;
      ASSERT_EQ(DigestBytes(t_probe.ChallengeBytes("probe")),
                DigestBytes(oracle_probe.ChallengeBytes("probe")))
          << "trial " << trial << " step " << step;
    }
  }
}

}  // namespace
}  // namespace vdp
