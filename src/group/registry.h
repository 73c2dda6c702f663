// The registry of compiled-in groups: one list, consumed everywhere a
// process needs "every group" -- tools/gen_params' `list` subcommand,
// verify_server's setup-frame dispatch, the differential group-law test
// harness, and the conformance suite's VDP_GROUP hook. Adding a group here
// is the single step that makes it reachable from all of them.
#ifndef SRC_GROUP_REGISTRY_H_
#define SRC_GROUP_REGISTRY_H_

#include <string>
#include <utility>
#include <vector>

#include "src/group/group.h"

namespace vdp {

template <PrimeOrderGroup G>
struct GroupTag {
  using Group = G;
};

// Invokes fn(GroupTag<G>{}) once per registered group, in a fixed order
// (cheapest test groups first). fn is typically a generic lambda.
template <typename Fn>
void ForEachRegisteredGroup(Fn&& fn) {
  fn(GroupTag<ModP64>{});
  fn(GroupTag<ModP256>{});
  fn(GroupTag<ModP512>{});
  fn(GroupTag<ModP1024>{});
  fn(GroupTag<ModP2048>{});
  fn(GroupTag<Schnorr512>{});
  fn(GroupTag<Schnorr2048>{});
  fn(GroupTag<Ed25519Group>{});
}

// Invokes fn(GroupTag<G>{}) for the group named `name`; returns false when
// the name matches no compiled-in group (fn not called).
template <typename Fn>
bool DispatchRegisteredGroup(const std::string& name, Fn&& fn) {
  bool found = false;
  ForEachRegisteredGroup([&](auto tag) {
    using G = typename decltype(tag)::Group;
    if (!found && name == G::Name()) {
      found = true;
      fn(tag);
    }
  });
  return found;
}

struct GroupInfo {
  std::string name;
  size_t element_bytes;
  size_t scalar_bits;  // bit length of the group order
};

inline std::vector<GroupInfo> RegisteredGroupInfos() {
  std::vector<GroupInfo> infos;
  ForEachRegisteredGroup([&](auto tag) {
    using G = typename decltype(tag)::Group;
    infos.push_back(GroupInfo{G::Name(), G::kElementSize,
                              G::Scalar::Order().BitLength()});
  });
  return infos;
}

inline std::vector<std::string> RegisteredGroupNames() {
  std::vector<std::string> names;
  ForEachRegisteredGroup([&](auto tag) {
    using G = typename decltype(tag)::Group;
    names.push_back(G::Name());
  });
  return names;
}

}  // namespace vdp

#endif  // SRC_GROUP_REGISTRY_H_
