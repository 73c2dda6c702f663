// Runtime group selection for processes that learn the backend from the
// wire (tools/verify_server): maps a setup frame's group name to the
// matching PrimeOrderGroup instantiation. Thin veneer over the group
// registry (src/group/registry.h) so the set of wire-reachable backends is
// exactly the set of registered groups.
#ifndef SRC_WIRE_GROUP_DISPATCH_H_
#define SRC_WIRE_GROUP_DISPATCH_H_

#include <string>

#include "src/group/registry.h"

namespace vdp {
namespace wire {

template <PrimeOrderGroup G>
using GroupTag = vdp::GroupTag<G>;

// Invokes fn(GroupTag<G>{}) for the backend named `name`; false when the
// name matches no compiled-in backend. fn runs for exactly one group, so a
// generic lambda is instantiated once per supported backend.
template <typename Fn>
bool DispatchGroup(const std::string& name, Fn&& fn) {
  return DispatchRegisteredGroup(name, std::forward<Fn>(fn));
}

}  // namespace wire
}  // namespace vdp

#endif  // SRC_WIRE_GROUP_DISPATCH_H_
