// Wire messages of Pi_Bin (Figure 2), with serialization.
//
// Naming follows the paper: c/r for client input commitments and randomness,
// c'/s for the prover's private-coin commitments and randomness; y_k/z_k for
// the prover outputs.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

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
    auto count = r.U32();
    if (!count) {
      return std::nullopt;
    }
    ClientShareMsg msg;
    for (uint32_t m = 0; m < *count; ++m) {
      auto vb = r.Blob();
      auto rb = r.Blob();
      if (!vb || !rb) {
        return std::nullopt;
      }
      auto v = G::Scalar::Decode(*vb);
      auto rr = G::Scalar::Decode(*rb);
      if (!v || !rr) {
        return std::nullopt;
      }
      msg.values.push_back(*v);
      msg.randomness.push_back(*rr);
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

  Bytes Serialize() const {
    Writer w;
    w.U32(static_cast<uint32_t>(commitments.size()));
    w.U32(commitments.empty() ? 0 : static_cast<uint32_t>(commitments[0].size()));
    for (const auto& row : commitments) {
      for (const auto& c : row) {
        w.Blob(G::Encode(c));
      }
    }
    w.U32(static_cast<uint32_t>(bin_proofs.size()));
    for (const auto& p : bin_proofs) {
      w.Blob(p.Serialize());
    }
    w.Blob(sum_randomness.Encode());
    return w.Take();
  }

  static std::optional<ClientUploadMsg> Deserialize(BytesView data) {
    Reader r(data);
    auto k = r.U32();
    auto m = r.U32();
    // Bound the [k][m] commitment matrix by the bytes left (one blob per
    // entry) before allocating its rows. Rows without columns would cost no
    // bytes at all, so that shape -- never produced for a valid config,
    // which has at least one bin -- is rejected outright.
    if (!k || !m || (*m == 0 && *k != 0) ||
        uint64_t{*k} * *m > r.remaining() / Reader::kMinBlobBytes) {
      return std::nullopt;
    }
    ClientUploadMsg msg;
    msg.commitments.resize(*k);
    for (uint32_t i = 0; i < *k; ++i) {
      for (uint32_t j = 0; j < *m; ++j) {
        auto blob = r.Blob();
        if (!blob) {
          return std::nullopt;
        }
        auto e = G::Decode(*blob);
        if (!e) {
          return std::nullopt;
        }
        msg.commitments[i].push_back(*e);
      }
    }
    auto proof_count = r.Count(Reader::kMinBlobBytes);
    if (!proof_count) {
      return std::nullopt;
    }
    for (uint32_t i = 0; i < *proof_count; ++i) {
      auto blob = r.Blob();
      if (!blob) {
        return std::nullopt;
      }
      auto p = OrProof<G>::Deserialize(*blob);
      if (!p) {
        return std::nullopt;
      }
      msg.bin_proofs.push_back(*p);
    }
    auto sum_blob = r.Blob();
    if (!sum_blob) {
      return std::nullopt;
    }
    auto sum = G::Scalar::Decode(*sum_blob);
    if (!sum || !r.AtEnd()) {
      return std::nullopt;
    }
    msg.sum_randomness = *sum;
    return msg;
  }
};

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

  static std::optional<ProverOutputMsg> Deserialize(BytesView data) {
    Reader r(data);
    auto count = r.U32();
    if (!count) {
      return std::nullopt;
    }
    ProverOutputMsg msg;
    for (uint32_t m = 0; m < *count; ++m) {
      auto yb = r.Blob();
      auto zb = r.Blob();
      if (!yb || !zb) {
        return std::nullopt;
      }
      auto y = G::Scalar::Decode(*yb);
      auto z = G::Scalar::Decode(*zb);
      if (!y || !z) {
        return std::nullopt;
      }
      msg.y.push_back(*y);
      msg.z.push_back(*z);
    }
    if (!r.AtEnd()) {
      return std::nullopt;
    }
    return msg;
  }
};

}  // namespace vdp

#endif  // SRC_CORE_MESSAGES_H_
