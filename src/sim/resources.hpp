// Weighted max-min fair rate allocation over shared resources.
//
// The fluid simulator models every shared component — disk read/write, NIC
// in/out, CPU, and WAN links — as a rate resource with a capacity in
// bytes/second. Each active flow (a Globus transfer, a probe, or a
// background-load process) crosses a set of resources with a per-resource
// *weight* (its GridFTP process count on disk/CPU resources, its TCP stream
// count on network resources) and has an optional per-flow rate cap (its
// TCP ceiling or its demand). Between simulator events, rates are the
// weighted max-min fair allocation computed here.
//
// Algorithm (progressive filling, one flow frozen per round):
//   repeat until all flows frozen:
//     rho_r  = remaining_cap_r / (sum of weights of unfrozen flows on r)
//     xhat_f = min(cap_f, min over r used by f of rho_r * w_{f,r})
//     freeze the flow with the smallest xhat at that rate (the first in
//     input order on a tie); subtract its consumption from every resource
//     it crosses.
// Because xhat_f <= rho_r * w_{f,r} <= remaining_cap_r for every r the flow
// uses, each freeze is feasible, and with uniform weights the fixpoint is
// classic max-min fairness. This is the same family of solver used by
// flow-level network simulators such as SimGrid.
//
// The solver is incremental. xhat_f only depends on the resources f
// crosses, so each flow's candidate is cached and, after a freeze, only the
// unfrozen flows sharing a resource with the frozen one are recomputed
// (found through a resource -> flow adjacency list built once per solve).
// A (candidate, index) tournament tree yields the next flow to freeze.
// Cost per solve: O(R + U) set-up for R pool resources and U usage
// entries, then per freeze O(log F) tree work plus O(U_g + log F) for each
// recomputed flow g, for F flows. The arithmetic and its order are those of
// a full rescan every round, so rates are bit-identical to it
// (tests/maxmin_oracle.hpp keeps the rescan as the test reference).
//
// Re-solving only what changed. Progressive filling splits exactly over
// connected components (flows joined by a shared resource): a component's
// candidates, freeze order and fill arithmetic read nothing outside it, and
// restricting the global (candidate, input index) order to one component
// gives that component's own freeze order. So when an event changes the
// inputs of a few resources, the union of the components that reach them,
// solved as one problem with its flows in input order, yields bit for bit
// the rates a solve of every flow would give those flows; every other
// component keeps its rates. DirtyComponents collects the changed
// resources and gathers that sub-problem. A flow's input position is one of
// the inputs: when a flow moves relative to the rest of its component, its
// resources must be marked too, or ties in that component may break the
// other way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xfl::sim {

using ResourceId = std::uint32_t;

/// A set of named rate resources with mutable capacities.
class ResourcePool {
 public:
  /// Add a resource; capacity in bytes/second (> 0, or 0 for a disabled
  /// resource which then allocates nothing).
  ResourceId add(std::string name, double capacity_Bps);

  std::size_t size() const { return capacity_.size(); }
  double capacity(ResourceId id) const;
  /// All capacities, indexed by ResourceId.
  const std::vector<double>& capacities() const { return capacity_; }
  const std::string& name(ResourceId id) const;

  /// Update a capacity (CPU efficiency and background modulation need this).
  void set_capacity(ResourceId id, double capacity_Bps);

 private:
  std::vector<double> capacity_;
  std::vector<std::string> names_;
};

/// One (resource, weight) usage entry of a flow.
///
/// `weight` sets the flow's share priority on the resource (streams on
/// network resources, processes on disk/CPU). `consumption_factor` converts
/// flow rate into resource consumption: 1.0 for byte-carrying resources;
/// >1.0 on CPU when integrity checking or encryption makes each transferred
/// byte cost more than one byte of processing.
struct ResourceUsage {
  ResourceId resource = 0;
  double weight = 1.0;
  double consumption_factor = 1.0;
};

/// A flow to be allocated: the resources it crosses and its own ceiling.
struct FlowSpec {
  std::vector<ResourceUsage> usage;
  double cap_Bps = 1.0e15;  ///< Per-flow ceiling (TCP model / demand).
};

/// Compute the weighted max-min fair allocation. Returns one rate per flow,
/// in input order. Flows with empty usage get their cap. Guarantees:
///   * per-resource feasibility: sum of allocated rates on r <= capacity(r)
///     (up to floating-point round-off),
///   * every flow rate <= its cap,
///   * no flow gets 0 unless its cap is 0 or a crossed resource has
///     capacity 0.
std::vector<double> maxmin_allocate(const ResourcePool& pool,
                                    const std::vector<FlowSpec>& flows);

/// The same allocation over bare capacities, one per resource id the flows
/// use, so a sub-problem pays set-up only for its own resources.
std::vector<double> maxmin_allocate(const std::vector<double>& capacities,
                                    const std::vector<FlowSpec>& flows);

/// The components of a flow list that hold a changed resource, as a
/// stand-alone max-min problem over densely renumbered resources.
struct SubProblem {
  std::vector<std::uint32_t> flow_ids;   ///< Input index of each flow, ascending.
  std::vector<FlowSpec> flows;           ///< Those flows, over local resource ids.
  std::vector<ResourceId> resource_ids;  ///< Pool id of each local resource.
  std::vector<double> capacities;        ///< Capacity of each local resource.
};

/// Collects the resources whose max-min inputs changed (capacity, the flows
/// crossing them, or those flows' caps, weights or input order) and gathers
/// the connected components they reach.
class DirtyComponents {
 public:
  void mark(ResourceId resource) { dirty_.push_back(resource); }
  void mark(const std::vector<ResourceUsage>& usage) {
    for (const auto& use : usage) dirty_.push_back(use.resource);
  }
  bool empty() const { return dirty_.empty(); }

  /// Fill `out` with every component of `flows` that crosses a marked
  /// resource, flows in input order, then clear the marks. A marked resource
  /// that no flow crosses comes out as a local resource with no flows, so
  /// the caller can reset its load. A flow that crosses no resource is in
  /// no component and never gathered. Costs O(U) for the U usage entries of
  /// `flows`, plus the size of the gathered part; nothing is O(pool size)
  /// except growing the scratch arrays when the pool grows.
  void gather(const ResourcePool& pool, const std::vector<FlowSpec>& flows,
              SubProblem& out);

 private:
  struct Link {
    std::uint32_t flow;
    std::uint32_t next;
  };

  std::vector<ResourceId> dirty_;
  // Scratch reused across gathers. A per-resource slot is valid only when
  // its stamp equals the current gather's, so no array is cleared per call.
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> listed_;  ///< Stamp of head_[r].
  std::vector<std::uint32_t> head_;    ///< First Link of r's flow list.
  std::vector<std::uint64_t> seen_;    ///< Stamp of local_[r].
  std::vector<std::uint32_t> local_;   ///< Local id of a gathered resource.
  std::vector<Link> links_;
  std::vector<bool> taken_;            ///< Per flow: already gathered.
};

}  // namespace xfl::sim
