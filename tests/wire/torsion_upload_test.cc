// Subgroup enforcement on the wire path a verify_server runs: an upload whose
// commitment was moved off the prime-order subgroup (shifted by a point of
// order 8 -- still on the curve, still canonical) fails to decode in
// UploadsFromWire and is then rejected by VerifyShard with exactly the reason
// a structurally bad upload gets, while its honest neighbours are accepted.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/client.h"
#include "src/wire/wire_convert.h"
#include "tests/group/ed25519_torsion_util.h"

namespace vdp {
namespace wire {
namespace {

using G = Ed25519Group;

TEST(TorsionUploadTest, ShiftedCommitmentRejectedLikeMalformedUpload) {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 2;
  config.num_bins = 2;
  config.session_id = "torsion-upload-test";
  Pedersen<G> ped;
  SecureRng rng("torsion-upload");
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 4; ++i) {
    uploads.push_back(MakeClientBundle<G>(static_cast<uint32_t>(i % 2), i, config, ped, rng).upload);
  }

  WireShardTask task = MakeShardTask<G>(Sha256::Digest{}, /*shard_index=*/0, /*base=*/0,
                                        /*compute_products=*/true, uploads.data(),
                                        uploads.size());
  // Upload 1: one commitment shifted by the order-8 point.
  const Bytes enc = G::Encode(uploads[1].commitments[0][1]);
  Bytes& forged = task.uploads[1];
  auto at = std::search(forged.begin(), forged.end(), enc.begin(), enc.end());
  ASSERT_NE(at, forged.end());
  const Bytes shifted = testing_util::EncodeShiftedByOrder8(uploads[1].commitments[0][1]);
  std::copy(shifted.begin(), shifted.end(), at);
  // Upload 3: structurally bad (truncated).
  task.uploads[3].resize(task.uploads[3].size() / 2);

  // The wire round trip of the task itself is unaffected: the frame layer
  // carries opaque bytes.
  auto reparsed = WireShardTask::Deserialize(task.Serialize());
  ASSERT_TRUE(reparsed.has_value());

  std::vector<ClientUploadMsg<G>> decoded = UploadsFromWire<G>(*reparsed);
  ASSERT_EQ(decoded.size(), uploads.size());
  ShardResult<G> result = VerifyShard(config, ped, decoded.data(), decoded.size(),
                                      /*base=*/0, /*shard_index=*/0);
  EXPECT_EQ(result.accepted, (std::vector<size_t>{0, 2}));
  ASSERT_EQ(result.rejections.size(), 2u);
  EXPECT_EQ(result.rejections[0].first, 1u);
  EXPECT_EQ(result.rejections[1].first, 3u);
  EXPECT_EQ(result.rejections[0].second, result.rejections[1].second);
  EXPECT_EQ(result.rejections[0].second, kDetailMalformedUpload);
}

}  // namespace
}  // namespace wire
}  // namespace vdp
