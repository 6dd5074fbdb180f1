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

}  // namespace xfl::sim
