// UploadsFromWire decodes a task's elements in chunks that run across
// upload boundaries. A failed element must still empty exactly the upload
// that owns it: every element of every upload is moved off the subgroup in
// turn (so the bad element visits every lane offset of a chunk), and only
// its owner may come back empty; the others must decode to the uploads that
// were sent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/client.h"
#include "src/wire/wire_convert.h"
#include "tests/group/ed25519_torsion_util.h"

namespace vdp {
namespace wire {
namespace {

using G = Ed25519Group;

TEST(UploadBatchDecodeTest, BadElementEmptiesExactlyItsOwner) {
  ProtocolConfig config;
  config.epsilon = 50.0;
  config.num_provers = 1;
  config.num_bins = 1;
  config.session_id = "upload-batch-decode-test";
  Pedersen<G> ped;
  SecureRng rng("upload-batch-decode");
  // Three elements per upload (c, a0, a1): eight uploads span three chunks.
  std::vector<ClientUploadMsg<G>> uploads;
  for (size_t i = 0; i < 8; ++i) {
    uploads.push_back(MakeClientBundle<G>(static_cast<uint32_t>(i % 2), i, config, ped, rng).upload);
  }
  const WireShardTask task = MakeShardTask<G>(Sha256::Digest{}, /*shard_index=*/0, /*base=*/0,
                                              /*compute_products=*/true, uploads.data(),
                                              uploads.size());
  ThreadPool pool(2);
  size_t element_index = 0;
  for (size_t owner = 0; owner < uploads.size(); ++owner) {
    std::vector<G::Element> elements;
    uploads[owner].AppendElements(&elements);
    ASSERT_EQ(elements.size(), 3u);
    for (const G::Element& e : elements) {
      const std::string what = "upload " + std::to_string(owner) + ", lane " +
                               std::to_string(element_index % ElementBlobs<G>::kDecodeChunk);
      ++element_index;
      WireShardTask forged = task;
      const Bytes enc = G::Encode(e);
      Bytes& bytes = forged.uploads[owner];
      auto at = std::search(bytes.begin(), bytes.end(), enc.begin(), enc.end());
      ASSERT_NE(at, bytes.end()) << what;
      const Bytes shifted = testing_util::EncodeShiftedByOrder8(e);
      std::copy(shifted.begin(), shifted.end(), at);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const std::vector<ClientUploadMsg<G>> decoded =
            convert_internal::UploadsFromWire<G>(forged, p);
        ASSERT_EQ(decoded.size(), uploads.size()) << what;
        for (size_t j = 0; j < uploads.size(); ++j) {
          if (j == owner) {
            EXPECT_TRUE(decoded[j].commitments.empty()) << what;
            EXPECT_TRUE(decoded[j].bin_proofs.empty()) << what;
          } else {
            EXPECT_EQ(decoded[j].Serialize(), task.uploads[j]) << what << ", upload " << j;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wire
}  // namespace vdp
