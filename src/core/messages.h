// Wire messages of Pi_Bin (Figure 2), with serialization.
//
// Naming follows the paper: c/r for client input commitments and randomness,
// c'/s for the prover's private-coin commitments and randomness; y_k/z_k for
// the prover outputs.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <span>
#include <vector>

#include "src/common/serialize.h"
#include "src/group/group.h"
#include "src/sigma/or_proof.h"

namespace vdp {

// Client i's private message to prover k: one share (+ its commitment
// randomness) per histogram bin. (Line 2 of Figure 2.)
template <PrimeOrderGroup G>
struct ClientShareMsg {
  std::vector<typename G::Scalar> values;      // [M]: k'th additive share of x_{i,m}
  std::vector<typename G::Scalar> randomness;  // [M]: r_{i,k,m}

  Bytes Serialize() const {
    Writer w;
    w.U32(static_cast<uint32_t>(values.size()));
    for (size_t m = 0; m < values.size(); ++m) {
      w.Blob(values[m].Encode());
      w.Blob(randomness[m].Encode());
    }
    return w.Take();
  }

  static std::optional<ClientShareMsg> Deserialize(BytesView data) {
    Reader r(data);
    auto count = r.Count(2 * kScalarBlobBytes<G>);
    if (!count) {
      return std::nullopt;
    }
    ClientShareMsg msg;
    msg.values.resize(*count);
    msg.randomness.resize(*count);
    for (uint32_t m = 0; m < *count; ++m) {
      auto vb = r.BlobView();
      auto rb = r.BlobView();
      if (!vb || !rb) {
        return std::nullopt;
      }
      auto v = G::Scalar::Decode(*vb);
      auto rr = G::Scalar::Decode(*rb);
      if (!v || !rr) {
        return std::nullopt;
      }
      msg.values[m] = *v;
      msg.randomness[m] = *rr;
    }
    if (!r.AtEnd()) {
      return std::nullopt;
    }
    return msg;
  }
};

// Client i's public broadcast: commitments to every share of every bin plus
// the validity proofs the (public) verifier checks at Line 3.
template <PrimeOrderGroup G>
struct ClientUploadMsg {
  // commitments[k][m] = Com([x_{i,m}]_k, r_{i,k,m}).
  std::vector<std::vector<typename G::Element>> commitments;  // [K][M]
  // Per-bin OR proof that prod_k commitments[k][m] commits to a bit.
  std::vector<OrProof<G>> bin_proofs;  // [M]
  // For M > 1: opening randomness of prod_m prod_k c_{i,k,m}, proving the
  // bins sum to exactly one (one-hot input).
  typename G::Scalar sum_randomness;

  // The upload's group elements in serialization order: the commitments row
  // by row, then a0 and a1 of each bin proof.
  void AppendElements(std::vector<typename G::Element>* out) const {
    for (const auto& row : commitments) {
      out->insert(out->end(), row.begin(), row.end());
    }
    for (const auto& p : bin_proofs) {
      out->push_back(p.a0);
      out->push_back(p.a1);
    }
  }

  Bytes Serialize() const {
    std::vector<typename G::Element> elements;
    AppendElements(&elements);
    return Serialize(EncodeAll<G>(elements));
  }

  // The same bytes, given the encodings of AppendElements' elements in order
  // (for callers that encode many uploads in one batch).
  Bytes Serialize(std::span<const Bytes> encoded) const {
    Writer w;
    w.U32(static_cast<uint32_t>(commitments.size()));
    w.U32(commitments.empty() ? 0 : static_cast<uint32_t>(commitments[0].size()));
    size_t next = 0;
    for (const auto& row : commitments) {
      for (size_t m = 0; m < row.size(); ++m) {
        w.Blob(encoded[next++]);
      }
    }
    w.U32(static_cast<uint32_t>(bin_proofs.size()));
    for (const auto& p : bin_proofs) {
      w.Blob(p.Serialize(encoded[next], encoded[next + 1]));
      next += 2;
    }
    w.Blob(sum_randomness.Encode());
    return w.Take();
  }

  // The shortest encoding that Deserialize accepts: k = m = 0, no proofs,
  // the sum randomness.
  static constexpr size_t kMinEncodedBytes = 3 * 4 + kScalarBlobBytes<G>;

  static std::optional<ClientUploadMsg> Deserialize(BytesView data) {
    ClientUploadMsg msg;
    ElementBlobs<G> elements;
    if (!msg.Frame(data, &elements) || !elements.Decode(/*pool=*/nullptr)) {
      return std::nullopt;
    }
    return msg;
  }

  // The framing pass of Deserialize, for parsers that decode many uploads'
  // elements on a pool (DeserializeTranscript, wire::UploadsFromWire):
  // checks the layout, decodes the sum randomness, sizes every container of
  // *this and adds each element's blob and slot to `elements` in
  // AppendElements order. `data` must outlive the decode.
  bool Frame(BytesView data, ElementBlobs<G>* elements) {
    Reader r(data);
    auto k = r.U32();
    auto m = r.U32();
    // Bound the [k][m] commitment matrix by the bytes left (one element blob
    // per entry) before allocating it. Rows without columns would cost no
    // bytes at all, so that shape -- never produced for a valid config,
    // which has at least one bin -- is rejected outright.
    if (!k || !m || (*m == 0 && *k != 0) ||
        uint64_t{*k} * *m > r.remaining() / kElementBlobBytes<G>) {
      return false;
    }
    commitments.assign(*k, std::vector<typename G::Element>(*m));
    for (auto& row : commitments) {
      for (auto& slot : row) {
        auto blob = r.BlobView();
        if (!blob) {
          return false;
        }
        elements->Add(*blob, &slot);
      }
    }
    auto proof_count = r.Count(Reader::kMinBlobBytes + OrProof<G>::kMinEncodedBytes);
    if (!proof_count) {
      return false;
    }
    bin_proofs.assign(*proof_count, OrProof<G>{});
    for (auto& proof : bin_proofs) {
      auto blob = r.BlobView();
      if (!blob || !proof.Frame(*blob, elements)) {
        return false;
      }
    }
    auto sum_blob = r.BlobView();
    if (!sum_blob) {
      return false;
    }
    auto sum = G::Scalar::Decode(*sum_blob);
    if (!sum || !r.AtEnd()) {
      return false;
    }
    sum_randomness = *sum;
    return true;
  }
};

// Serializes uploads[0..count) in order, handing each upload's bytes to
// sink. Elements are encoded in batches of about kEncodeChunk (one shared
// field inversion per batch on curve groups), which also bounds the
// encodings held at once.
template <PrimeOrderGroup G, typename Sink>
void SerializeUploads(const ClientUploadMsg<G>* uploads, size_t count, const Sink& sink) {
  constexpr size_t kEncodeChunk = 1024;
  std::vector<typename G::Element> elements;
  std::vector<size_t> starts;  // starts[i - from]: upload i's first element
  for (size_t from = 0; from < count;) {
    elements.clear();
    starts.clear();
    size_t to = from;
    while (to < count && (to == from || elements.size() < kEncodeChunk)) {
      starts.push_back(elements.size());
      uploads[to++].AppendElements(&elements);
    }
    starts.push_back(elements.size());
    const std::vector<Bytes> encoded = EncodeAll<G>(elements);
    const std::span<const Bytes> all(encoded);
    for (size_t i = from; i < to; ++i) {
      const size_t first = starts[i - from];
      sink(uploads[i].Serialize(all.subspan(first, starts[i - from + 1] - first)));
    }
    from = to;
  }
}

// Prover k's first message (Line 4): commitments to nb private bits per bin
// plus their OR proofs (Lines 5-6 validate these).
template <PrimeOrderGroup G>
struct ProverCoinsMsg {
  // coin_commitments[m][j] = Com(v_{j,k,m}, s_{j,k,m}).
  std::vector<std::vector<typename G::Element>> coin_commitments;  // [M][nb]
  std::vector<std::vector<OrProof<G>>> coin_proofs;                // [M][nb]
};

// Prover k's final message (Lines 10-11): per-bin output share and aggregate
// opening randomness.
template <PrimeOrderGroup G>
struct ProverOutputMsg {
  std::vector<typename G::Scalar> y;  // [M]
  std::vector<typename G::Scalar> z;  // [M]

  Bytes Serialize() const {
    Writer w;
    w.U32(static_cast<uint32_t>(y.size()));
    for (size_t m = 0; m < y.size(); ++m) {
      w.Blob(y[m].Encode());
      w.Blob(z[m].Encode());
    }
    return w.Take();
  }

  // The shortest encoding that Deserialize accepts: a zero count.
  static constexpr size_t kMinEncodedBytes = 4;

  static std::optional<ProverOutputMsg> Deserialize(BytesView data) {
    Reader r(data);
    auto count = r.Count(2 * kScalarBlobBytes<G>);
    if (!count) {
      return std::nullopt;
    }
    ProverOutputMsg msg;
    msg.y.resize(*count);
    msg.z.resize(*count);
    for (uint32_t m = 0; m < *count; ++m) {
      auto yb = r.BlobView();
      auto zb = r.BlobView();
      if (!yb || !zb) {
        return std::nullopt;
      }
      auto y = G::Scalar::Decode(*yb);
      auto z = G::Scalar::Decode(*zb);
      if (!y || !z) {
        return std::nullopt;
      }
      msg.y[m] = *y;
      msg.z[m] = *z;
    }
    if (!r.AtEnd()) {
      return std::nullopt;
    }
    return msg;
  }
};

}  // namespace vdp

#endif  // SRC_CORE_MESSAGES_H_
