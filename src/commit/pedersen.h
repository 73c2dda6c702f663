// Pedersen commitments: Com(x, r) = g^x h^r over a prime-order group.
//
// This is the homomorphic commitment scheme of Definition 3: computationally
// binding under DLOG, perfectly hiding, and Com(x1,r1) * Com(x2,r2) =
// Com(x1+x2, r1+r2). The second generator h is derived by hashing into the
// group so that nobody knows log_g(h).
#ifndef SRC_COMMIT_PEDERSEN_H_
#define SRC_COMMIT_PEDERSEN_H_

#include <memory>
#include <string>

#include "src/group/fixed_base.h"
#include "src/group/group.h"

namespace vdp {

template <PrimeOrderGroup G>
struct PedersenParams {
  typename G::Element g;
  typename G::Element h;

  // Standard public parameters: g is the group generator; h is an
  // independent generator derived via hash-to-group ("nothing up my sleeve").
  static PedersenParams Default() {
    PedersenParams pp;
    pp.g = G::Generator();
    pp.h = G::HashToGroup(StrView("vdp/pedersen-params"), StrView("generator-h"));
    return pp;
  }
};

template <PrimeOrderGroup G>
class Pedersen {
 public:
  using Element = typename G::Element;
  using Scalar = typename G::Scalar;
  using Commitment = typename G::Element;

  explicit Pedersen(PedersenParams<G> params = PedersenParams<G>::Default())
      : params_(std::move(params)),
        g_table_(FixedBaseTable<G>::Shared(params_.g)),
        h_table_(FixedBaseTable<G>::Shared(params_.h)),
        encoded_g_(G::Encode(params_.g)),
        encoded_h_(G::Encode(params_.h)) {}

  const PedersenParams<G>& params() const { return params_; }

  // Com(x, r) = g^x h^r using the fixed-base tables; the two partial products
  // are merged in the kernel's accumulator form.
  Commitment Commit(const Scalar& x, const Scalar& r) const {
    using Ac = typename G::Accel;
    return Ac::Lower(
        Ac::Add(g_table_->ExpAccum(x), h_table_->ExpAccum(r)));
  }

  // Commitment with fresh randomness; returns both.
  struct Opening {
    Commitment commitment;
    Scalar randomness;
  };
  Opening CommitRandom(const Scalar& x, SecureRng& rng) const {
    Opening o;
    o.randomness = Scalar::Random(rng);
    o.commitment = Commit(x, o.randomness);
    return o;
  }

  bool Verify(const Commitment& c, const Scalar& x, const Scalar& r) const {
    return Commit(x, r) == c;
  }

  // h^r (used by the sigma protocols, which prove statements about h).
  Element ExpH(const Scalar& r) const { return h_table_->Exp(r); }
  Element ExpG(const Scalar& x) const { return g_table_->Exp(x); }

  // Cached canonical encodings (transcripts absorb the generators on every
  // proof; for curve groups each fresh encode would cost a field inversion).
  const Bytes& encoded_g() const { return encoded_g_; }
  const Bytes& encoded_h() const { return encoded_h_; }

  // The underlying tables, for verifiers that fold fixed-base terms into a
  // larger multi-scalar multiplication.
  const FixedBaseTable<G>& g_table() const { return *g_table_; }
  const FixedBaseTable<G>& h_table() const { return *h_table_; }

 private:
  PedersenParams<G> params_;
  // Shared process-wide per generator (see FixedBaseTable::Shared).
  std::shared_ptr<const FixedBaseTable<G>> g_table_;
  std::shared_ptr<const FixedBaseTable<G>> h_table_;
  Bytes encoded_g_;
  Bytes encoded_h_;
};

}  // namespace vdp

#endif  // SRC_COMMIT_PEDERSEN_H_
