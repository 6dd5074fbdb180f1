#include "sim/resources.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/contracts.hpp"

namespace xfl::sim {

ResourceId ResourcePool::add(std::string name, double capacity_Bps) {
  XFL_EXPECTS(capacity_Bps >= 0.0);
  capacity_.push_back(capacity_Bps);
  names_.push_back(std::move(name));
  return static_cast<ResourceId>(capacity_.size() - 1);
}

double ResourcePool::capacity(ResourceId id) const {
  XFL_EXPECTS(id < capacity_.size());
  return capacity_[id];
}

const std::string& ResourcePool::name(ResourceId id) const {
  XFL_EXPECTS(id < names_.size());
  return names_[id];
}

void ResourcePool::set_capacity(ResourceId id, double capacity_Bps) {
  XFL_EXPECTS(id < capacity_.size());
  XFL_EXPECTS(capacity_Bps >= 0.0);
  capacity_[id] = capacity_Bps;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kFrozen = std::numeric_limits<std::uint32_t>::max();

/// Candidate rate of one unfrozen flow: its cap, lowered by its weighted
/// fair share on every resource it crosses. A NaN candidate ranks as +inf,
/// so it is never frozen while a finite one is left.
double candidate_rate(const FlowSpec& flow,
                      const std::vector<double>& remaining_cap,
                      const std::vector<double>& remaining_weight) {
  double candidate = flow.cap_Bps;
  for (const auto& use : flow.usage) {
    const double weight_sum = remaining_weight[use.resource];
    // Fair share in *work* units is rho * w; dividing by the consumption
    // factor converts it back to flow-rate units.
    const double share =
        weight_sum > 0.0 ? remaining_cap[use.resource] / weight_sum *
                               use.weight / use.consumption_factor
                         : 0.0;
    candidate = std::min(candidate, share);
  }
  return candidate < kInf ? candidate : kInf;
}

/// Tournament tree over (key, index): each node holds the index of the
/// smallest key below it, the left (lower-index) child winning ties, so the
/// root is the first strict minimum in index order. Padding leaves point at
/// a sentinel index whose key is +inf.
class Tournament {
 public:
  /// One key per leaf, plus a last slot that becomes the sentinel.
  explicit Tournament(std::vector<double> keys)
      : keys_(std::move(keys)), leaves_(std::bit_ceil(keys_.size() - 1)) {
    const auto sentinel = static_cast<std::uint32_t>(keys_.size() - 1);
    keys_[sentinel] = kInf;
    nodes_.assign(2 * leaves_, sentinel);
    for (std::uint32_t i = 0; i < sentinel; ++i) nodes_[leaves_ + i] = i;
    for (std::size_t n = leaves_ - 1; n >= 1; --n) refresh(n);
  }

  std::uint32_t winner() const { return nodes_[1]; }
  double key(std::uint32_t i) const { return keys_[i]; }

  /// Re-key leaf i and replay its matches up to the root.
  void update(std::uint32_t i, double key) {
    keys_[i] = key;
    for (std::size_t n = (leaves_ + i) / 2; n >= 1; n /= 2) refresh(n);
  }

 private:
  void refresh(std::size_t n) {
    const std::uint32_t left = nodes_[2 * n];
    const std::uint32_t right = nodes_[2 * n + 1];
    nodes_[n] = keys_[right] < keys_[left] ? right : left;
  }

  std::vector<double> keys_;
  std::size_t leaves_;
  std::vector<std::uint32_t> nodes_;
};

}  // namespace

std::vector<double> maxmin_allocate(const ResourcePool& pool,
                                    const std::vector<FlowSpec>& flows) {
  return maxmin_allocate(pool.capacities(), flows);
}

std::vector<double> maxmin_allocate(const std::vector<double>& capacities,
                                    const std::vector<FlowSpec>& flows) {
  const std::size_t flow_count = flows.size();
  std::vector<double> rates(flow_count, 0.0);
  if (flow_count == 0) return rates;
  const std::size_t resource_count = capacities.size();

  std::vector<double> remaining_cap = capacities;

  // Weight sums accumulate in flow order (the order fixes their rounding);
  // the same pass counts each resource's uses for the adjacency list.
  std::vector<double> remaining_weight(resource_count, 0.0);
  std::vector<std::uint32_t> member_begin(resource_count + 1, 0);
  for (const auto& flow : flows)
    for (const auto& use : flow.usage) {
      XFL_EXPECTS(use.resource < resource_count);
      XFL_EXPECTS(use.weight > 0.0);
      XFL_EXPECTS(use.consumption_factor > 0.0);
      remaining_weight[use.resource] += use.weight;
      ++member_begin[use.resource + 1];
    }

  // Resource -> flow adjacency (CSR), built once per solve:
  // members[member_begin[r], member_end[r]) lists the flows crossing r.
  // Frozen flows are dropped lazily when a scan meets them.
  for (std::size_t r = 0; r < resource_count; ++r)
    member_begin[r + 1] += member_begin[r];
  std::vector<std::uint32_t> member_end(member_begin.begin(),
                                        member_begin.end() - 1);
  std::vector<std::uint32_t> members(member_begin[resource_count]);
  for (std::uint32_t f = 0; f < flow_count; ++f)
    for (const auto& use : flows[f].usage)
      members[member_end[use.resource]++] = f;

  std::vector<double> keys(flow_count + 1);
  for (std::size_t f = 0; f < flow_count; ++f)
    keys[f] = candidate_rate(flows[f], remaining_cap, remaining_weight);
  Tournament tournament(std::move(keys));

  // Per flow: kFrozen, or the last round its candidate was recomputed.
  std::vector<std::uint32_t> stamp(flow_count, 0);
  for (std::uint32_t round = 1; round <= flow_count; ++round) {
    const std::uint32_t best_flow = tournament.winner();
    const double best_rate = tournament.key(best_flow);
    XFL_ENSURES(best_rate < kInf);
    stamp[best_flow] = kFrozen;
    tournament.update(best_flow, kInf);
    const double rate = std::max(best_rate, 0.0);
    rates[best_flow] = rate;
    const auto& usage = flows[best_flow].usage;
    for (const auto& use : usage) {
      remaining_cap[use.resource] =
          std::max(0.0, remaining_cap[use.resource] - rate * use.consumption_factor);
      remaining_weight[use.resource] -= use.weight;
      if (remaining_weight[use.resource] < 0.0)
        remaining_weight[use.resource] = 0.0;
    }
    // Only flows sharing a resource with the frozen one see a new fill
    // level; every other cached candidate is still exact.
    for (const auto& use : usage) {
      std::uint32_t& end = member_end[use.resource];
      for (std::uint32_t m = member_begin[use.resource]; m < end;) {
        const std::uint32_t f = members[m];
        if (stamp[f] == kFrozen) {
          members[m] = members[--end];
          continue;
        }
        if (stamp[f] != round) {
          stamp[f] = round;
          tournament.update(
              f, candidate_rate(flows[f], remaining_cap, remaining_weight));
        }
        ++m;
      }
    }
  }
  return rates;
}

void DirtyComponents::gather(const ResourcePool& pool,
                             const std::vector<FlowSpec>& flows,
                             SubProblem& out) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t resource_count = pool.size();
  if (listed_.size() < resource_count) {
    listed_.resize(resource_count, 0);
    head_.resize(resource_count);
    seen_.resize(resource_count, 0);
    local_.resize(resource_count);
  }
  ++stamp_;
  out.flow_ids.clear();
  out.resource_ids.clear();

  // Resource -> flow lists over this call's flows, as linked Links.
  links_.clear();
  for (std::uint32_t f = 0; f < flows.size(); ++f)
    for (const auto& use : flows[f].usage) {
      XFL_EXPECTS(use.resource < resource_count);
      if (listed_[use.resource] != stamp_) {
        listed_[use.resource] = stamp_;
        head_[use.resource] = kNone;
      }
      links_.push_back({f, head_[use.resource]});
      head_[use.resource] = static_cast<std::uint32_t>(links_.size() - 1);
    }

  // Breadth-first over resources from the marked ones: each visited
  // resource pulls in its flows, and each new flow its other resources.
  auto visit = [&](ResourceId r) {
    if (seen_[r] == stamp_) return;
    seen_[r] = stamp_;
    local_[r] = static_cast<std::uint32_t>(out.resource_ids.size());
    out.resource_ids.push_back(r);
  };
  for (const ResourceId r : dirty_) {
    XFL_EXPECTS(r < resource_count);
    visit(r);
  }
  dirty_.clear();
  taken_.assign(flows.size(), false);
  for (std::size_t next = 0; next < out.resource_ids.size(); ++next) {
    const ResourceId r = out.resource_ids[next];
    if (listed_[r] != stamp_) continue;  // No flow crosses r.
    for (std::uint32_t link = head_[r]; link != kNone; link = links_[link].next) {
      const std::uint32_t f = links_[link].flow;
      if (taken_[f]) continue;
      taken_[f] = true;
      out.flow_ids.push_back(f);
      for (const auto& use : flows[f].usage) visit(use.resource);
    }
  }

  // Input order fixes the weight-sum rounding and the tie-break.
  std::sort(out.flow_ids.begin(), out.flow_ids.end());
  out.flows.resize(out.flow_ids.size());
  for (std::size_t k = 0; k < out.flow_ids.size(); ++k) {
    const FlowSpec& flow = flows[out.flow_ids[k]];
    FlowSpec& local = out.flows[k];
    local.cap_Bps = flow.cap_Bps;
    local.usage.assign(flow.usage.begin(), flow.usage.end());
    for (auto& use : local.usage) use.resource = local_[use.resource];
  }
  out.capacities.resize(out.resource_ids.size());
  for (std::size_t j = 0; j < out.resource_ids.size(); ++j)
    out.capacities[j] = pool.capacity(out.resource_ids[j]);
}

}  // namespace xfl::sim
