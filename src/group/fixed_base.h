// Fixed-base exponentiation with precomputed comb tables.
//
// Pedersen commitments and the per-proof verifier exponentiate the same two
// generators millions of times per protocol run. A comb table stores
// base^(d * 2^(w*width)) for every window position w and digit d, turning
// each exponentiation into one table addition per nonzero window -- no
// squarings at all. Tables are built through the group's acceleration kernel
// (G::Accel, src/group/group.h): entries live in the kernel's table form
// (Montgomery residues / Niels points, batch-normalized with one inversion),
// and groups with cheap negation use signed digits, which halves the table
// while keeping the same window width.
//
// Shared(base) memoizes tables per generator behind a mutex so the committer,
// the verifier and the MSM fixed-base fast path all reuse one table per
// (group, generator) pair across threads.
#ifndef SRC_GROUP_FIXED_BASE_H_
#define SRC_GROUP_FIXED_BASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/group/group.h"

namespace vdp {

// The w-bit digit (w < 64) of little-endian limbs v starting at bit position
// `bit`: one shift and mask, reading bits past the top limb as zero.
inline uint64_t DigitAt(std::span<const uint64_t> v, size_t bit, size_t w) {
  const size_t word = bit / 64;
  const size_t off = bit % 64;
  if (word >= v.size()) {
    return 0;
  }
  uint64_t d = v[word] >> off;
  if (off + w > 64 && word + 1 < v.size()) {
    d |= v[word + 1] << (64 - off);
  }
  return d & ((uint64_t{1} << w) - 1);
}

template <PrimeOrderGroup G>
class FixedBaseTable {
 public:
  using Element = typename G::Element;
  using Scalar = typename G::Scalar;
  using Ac = typename G::Accel;

  // Window width per group. A comb costs one table addition per window, so
  // wider is faster until the table stops fitting in cache. Cheap-negate
  // groups (ed25519) use signed digits, 2^(width-1) entries per row, and take
  // the widest allowed window: at 8 a 253-bit scalar costs at most 32
  // additions for a 492 KB table per generator, where 6 would cost 43 for
  // 169 KB. Z_p* entries are a full modulus each and rows are unsigned
  // (2^width - 1 entries), so they stay at 5, or at 4 above 512-bit orders,
  // to keep their tables in the low MBs.
  static size_t DefaultWindow() {
    if (Ac::kCheapNegate) {
      return 8;
    }
    return Scalar::Order().BitLength() > 512 ? 4 : 5;
  }

  explicit FixedBaseTable(const Element& base, size_t window = DefaultWindow())
      : width_(window < 2 ? 2 : (window > 8 ? 8 : window)) {
    // Signed recoding can carry one bit past the order's top bit.
    const size_t bits = Scalar::Order().BitLength() + (Ac::kCheapNegate ? 1 : 0);
    windows_ = (bits + width_ - 1) / width_;
    per_row_ = Ac::kCheapNegate ? (size_t{1} << (width_ - 1))
                                : (size_t{1} << width_) - 1;

    // Build every row in accumulator form, then normalize the whole table to
    // the kernel's mixed-addition form with a single batch conversion.
    std::vector<typename Ac::P> pts;
    pts.reserve(windows_ * per_row_);
    typename Ac::P row_base = Ac::Lift(base);  // base^(2^(w*width))
    for (size_t w = 0; w < windows_; ++w) {
      typename Ac::P cur = row_base;
      pts.push_back(cur);
      for (size_t d = 2; d <= per_row_; ++d) {
        cur = Ac::Add(cur, row_base);
        pts.push_back(cur);
      }
      for (size_t s = 0; s < width_; ++s) {
        row_base = Ac::Dbl(row_base);
      }
    }
    Ac::Normalize(pts, &entries_);
  }

  size_t window() const { return width_; }
  // Bytes of precomputed entries (the table's memory cost).
  size_t table_bytes() const { return entries_.size() * sizeof(typename Ac::A); }

  // base^e in the kernel's accumulator form (for callers that keep working --
  // the MSM fixed-base fast path folds this straight into its running sum).
  typename Ac::P ExpAccum(const Scalar& e) const {
    const auto& v = e.value();
    typename Ac::P acc = Ac::Identity();
    if constexpr (Ac::kCheapNegate) {
      // Signed digits in [-2^(width-1), 2^(width-1)]: digits above half are
      // replaced by (digit - 2^width) with a carry into the next window, and
      // negative digits use the kernel's free negation.
      const int64_t full = int64_t{1} << width_;
      const int64_t half = full >> 1;
      int64_t carry = 0;
      for (size_t w = 0; w < windows_; ++w) {
        int64_t d = static_cast<int64_t>(DigitAt(v.limb, w * width_, width_)) + carry;
        if (d > half) {
          d -= full;
          carry = 1;
        } else {
          carry = 0;
        }
        if (d > 0) {
          acc = Ac::AddA(acc, entry(w, static_cast<size_t>(d)));
        } else if (d < 0) {
          acc = Ac::AddA(acc, Ac::NegA(entry(w, static_cast<size_t>(-d))));
        }
      }
    } else {
      // Unsigned digits. Every window of the table is consulted up to the
      // scalar's own top bit; the table always covers the order's full bit
      // length, so scalars at exactly that length use the top row too.
      const size_t bits = v.BitLength();
      for (size_t w = 0; w < windows_ && w * width_ < bits; ++w) {
        const size_t d = DigitAt(v.limb, w * width_, width_);
        if (d != 0) {
          acc = Ac::AddA(acc, entry(w, d));
        }
      }
    }
    return acc;
  }

  // base^e using one table addition per nonzero window.
  Element Exp(const Scalar& e) const { return Ac::Lower(ExpAccum(e)); }

  // Per-generator shared table cache. Keyed by the generator's canonical
  // encoding; thread-safe; capped so adversarially many generators cannot
  // balloon the process (extra generators get uncached fresh tables). The
  // key is a std::string: GCC 12 at -O3 warns -Wstringop-overread inside
  // std::vector<uint8_t>'s operator<=>, which a Bytes key would compare with.
  static std::shared_ptr<const FixedBaseTable> Shared(const Element& base) {
    static std::mutex mu;
    static std::map<std::string, std::shared_ptr<const FixedBaseTable>>* cache =
        new std::map<std::string, std::shared_ptr<const FixedBaseTable>>();
    const Bytes encoded = G::Encode(base);
    std::string key(encoded.begin(), encoded.end());
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = cache->find(key);
      if (it != cache->end()) {
        return it->second;
      }
    }
    auto table = std::make_shared<const FixedBaseTable>(base);
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(key);  // racing builder may have won; reuse theirs
    if (it != cache->end()) {
      return it->second;
    }
    if (cache->size() < 64) {
      cache->emplace(std::move(key), table);
    }
    return table;
  }

 private:
  // Digit d in [1, per_row_] of window w.
  const typename Ac::A& entry(size_t w, size_t d) const {
    return entries_[w * per_row_ + (d - 1)];
  }

  size_t width_;
  size_t windows_ = 0;
  size_t per_row_ = 0;
  std::vector<typename Ac::A> entries_;
};

}  // namespace vdp

#endif  // SRC_GROUP_FIXED_BASE_H_
