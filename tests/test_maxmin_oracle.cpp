// Equivalence of the incremental max-min solver, and of its component-local
// re-solves, with the full-rescan reference solver (maxmin_oracle.hpp):
// rates must match bit for bit, because the simulator's logs, and every
// model fitted on them, depend on the exact arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "maxmin_oracle.hpp"
#include "sim/resources.hpp"

namespace xfl::sim {
namespace {

struct Instance {
  ResourcePool pool;
  std::vector<FlowSpec> flows;
};

void expect_bit_identical(const Instance& instance) {
  const auto expected = oracle::maxmin_allocate(instance.pool, instance.flows);
  const auto actual = maxmin_allocate(instance.pool, instance.flows);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t f = 0; f < expected.size(); ++f)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[f]),
              std::bit_cast<std::uint64_t>(expected[f]))
        << "flow " << f << ": " << actual[f] << " vs oracle " << expected[f];
}

ResourceId pick(Rng& rng, std::size_t count) {
  return static_cast<ResourceId>(
      rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
}

template <typename T>
T pick_from(Rng& rng, const std::vector<T>& values) {
  return values[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
}

/// Caps, capacities and weights drawn from a few values, so many flows tie
/// exactly on their candidate rate and the tie-break decides every round.
Instance exact_ties(Rng& rng) {
  Instance in;
  const std::size_t resources = 6;
  for (std::size_t r = 0; r < resources; ++r)
    in.pool.add("r" + std::to_string(r), pick_from<double>(rng, {60.0, 120.0}));
  in.flows.resize(static_cast<std::size_t>(rng.uniform_int(2, 40)));
  for (auto& flow : in.flows) {
    const auto uses = rng.uniform_int(1, 3);
    for (std::int64_t u = 0; u < uses; ++u)
      flow.usage.push_back(
          {pick(rng, resources), pick_from<double>(rng, {1.0, 2.0}), 1.0});
    flow.cap_Bps = pick_from<double>(rng, {10.0, 20.0, 1.0e15});
  }
  return in;
}

/// Some resources are disabled (capacity 0), starving every flow on them.
Instance zero_capacity(Rng& rng) {
  Instance in;
  const std::size_t resources = 8;
  for (std::size_t r = 0; r < resources; ++r)
    in.pool.add("r" + std::to_string(r),
                rng.bernoulli(0.3) ? 0.0 : rng.uniform(10.0, 1000.0));
  in.flows.resize(static_cast<std::size_t>(rng.uniform_int(1, 30)));
  for (auto& flow : in.flows) {
    const auto uses = rng.uniform_int(1, 4);
    for (std::int64_t u = 0; u < uses; ++u)
      flow.usage.push_back({pick(rng, resources), rng.uniform(0.5, 8.0), 1.0});
    flow.cap_Bps = rng.uniform(1.0, 2000.0);
  }
  return in;
}

/// Flows that list one resource twice (both entries count, in order).
Instance repeated_resource(Rng& rng) {
  Instance in;
  const std::size_t resources = 5;
  for (std::size_t r = 0; r < resources; ++r)
    in.pool.add("r" + std::to_string(r), rng.uniform(10.0, 1000.0));
  in.flows.resize(static_cast<std::size_t>(rng.uniform_int(1, 30)));
  for (auto& flow : in.flows) {
    const ResourceUsage use{pick(rng, resources), rng.uniform(0.5, 8.0),
                            rng.uniform(1.0, 2.0)};
    flow.usage.push_back(use);
    if (rng.bernoulli(0.5))
      flow.usage.push_back({pick(rng, resources), rng.uniform(0.5, 8.0), 1.0});
    flow.usage.push_back(rng.bernoulli(0.5)
                             ? use
                             : ResourceUsage{use.resource, rng.uniform(0.5, 8.0),
                                             1.0});
    flow.cap_Bps = rng.uniform(1.0, 2000.0);
  }
  return in;
}

/// Flows without resources mixed in; they are capped only by themselves.
Instance empty_usage(Rng& rng) {
  Instance in;
  const std::size_t resources = 4;
  for (std::size_t r = 0; r < resources; ++r)
    in.pool.add("r" + std::to_string(r), rng.uniform(10.0, 1000.0));
  in.flows.resize(static_cast<std::size_t>(rng.uniform_int(1, 30)));
  for (auto& flow : in.flows) {
    if (rng.bernoulli(0.6)) {
      const auto uses = rng.uniform_int(1, 3);
      for (std::int64_t u = 0; u < uses; ++u)
        flow.usage.push_back({pick(rng, resources), rng.uniform(0.5, 8.0), 1.0});
    }
    flow.cap_Bps = rng.uniform(1.0, 2000.0);
  }
  return in;
}

/// Consumption factors above one (CPU cost of integrity/encryption).
Instance consumption_factors(Rng& rng) {
  Instance in;
  const std::size_t resources = 10;
  for (std::size_t r = 0; r < resources; ++r)
    in.pool.add("r" + std::to_string(r), rng.uniform(10.0, 1000.0));
  in.flows.resize(static_cast<std::size_t>(rng.uniform_int(1, 50)));
  for (auto& flow : in.flows) {
    const auto uses = rng.uniform_int(1, 6);
    for (std::int64_t u = 0; u < uses; ++u)
      flow.usage.push_back({pick(rng, resources), rng.uniform(0.5, 16.0),
                            rng.bernoulli(0.5) ? 1.0 : rng.uniform(1.0, 3.0)});
    flow.cap_Bps = rng.uniform(1.0, 2000.0);
  }
  return in;
}

/// The simulator's shape: ~474 resources (five per endpoint plus WAN
/// paths), ~60 flows of which two thirds are single-resource background
/// flows, the rest transfers crossing disk, CPU, NIC and WAN resources with
/// process/stream weights and a CPU consumption factor.
Instance simulator_mix(Rng& rng) {
  Instance in;
  const std::size_t endpoints = 80;
  const std::size_t wan_paths = 74;
  for (std::size_t e = 0; e < endpoints; ++e) {
    in.pool.add("disk_read", rng.uniform(1e8, 3e9));
    in.pool.add("disk_write", rng.uniform(1e8, 3e9));
    in.pool.add("nic_in", pick_from<double>(rng, {1.25e9, 1.25e10}));
    in.pool.add("nic_out", pick_from<double>(rng, {1.25e9, 1.25e10}));
    in.pool.add("cpu", rng.uniform(1e9, 8e9));
  }
  for (std::size_t w = 0; w < wan_paths; ++w)
    in.pool.add("wan", pick_from<double>(rng, {1.25e9, 1.25e10}));
  const std::size_t flow_count = static_cast<std::size_t>(rng.uniform_int(40, 84));
  in.flows.resize(flow_count);
  for (auto& flow : in.flows) {
    if (rng.uniform() < 2.0 / 3.0) {
      flow.usage.push_back(
          {pick(rng, in.pool.size()), rng.uniform(1.0, 8.0), 1.0});
      flow.cap_Bps = rng.uniform(1e7, 1e9);
      continue;
    }
    const auto src = static_cast<ResourceId>(5 * pick(rng, endpoints));
    const auto dst = static_cast<ResourceId>(5 * pick(rng, endpoints));
    const auto wan = static_cast<ResourceId>(5 * endpoints + pick(rng, wan_paths));
    const double procs = static_cast<double>(rng.uniform_int(1, 8));
    const double streams = procs * static_cast<double>(rng.uniform_int(1, 8));
    const double cpu_factor = pick_from<double>(rng, {1.0, 1.0, 1.6, 2.4});
    if (rng.bernoulli(0.8)) flow.usage.push_back({src + 0, procs, 1.0});
    flow.usage.push_back({src + 4, procs, cpu_factor});
    flow.usage.push_back({src + 3, streams, 1.0});
    flow.usage.push_back({wan, streams, 1.0});
    flow.usage.push_back({dst + 2, streams, 1.0});
    flow.usage.push_back({dst + 4, procs, cpu_factor});
    if (rng.bernoulli(0.8)) flow.usage.push_back({dst + 1, procs, 1.0});
    flow.cap_Bps = rng.uniform(1e7, 5e9);
  }
  return in;
}

constexpr std::uint64_t kInstancesPerShape = 50;  // x6 shapes = 300.

template <typename Generator>
void check_shape(Generator generate, std::uint64_t salt) {
  for (std::uint64_t seed = 1; seed <= kInstancesPerShape; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(salt * 1000 + seed);
    expect_bit_identical(generate(rng));
  }
}

TEST(MaxMinOracle, ExactTies) { check_shape(exact_ties, 1); }
TEST(MaxMinOracle, ZeroCapacityResources) { check_shape(zero_capacity, 2); }
TEST(MaxMinOracle, ResourceListedTwice) { check_shape(repeated_resource, 3); }
TEST(MaxMinOracle, EmptyUsageFlows) { check_shape(empty_usage, 4); }
TEST(MaxMinOracle, ConsumptionFactors) { check_shape(consumption_factors, 5); }
TEST(MaxMinOracle, SimulatorShapedMix) { check_shape(simulator_mix, 6); }

TEST(MaxMinOracle, SignedZeroCandidatesTieInIndexOrder) {
  // -0.0 and +0.0 compare equal, so the first of them in index order is
  // frozen first and keeps its own sign.
  Instance in;
  const auto r = in.pool.add("r", 100.0);
  in.flows.resize(4);
  in.flows[0].cap_Bps = 0.0;
  in.flows[1].cap_Bps = -0.0;
  in.flows[2].cap_Bps = -0.0;
  in.flows[3].usage = {{r, 1.0, 1.0}};
  for (auto& flow : in.flows) flow.usage.push_back({r, 1.0, 1.0});
  expect_bit_identical(in);
}

TEST(MaxMinOracle, NoFiniteCandidateFailsPostcondition) {
  // A flow with no resources and an infinite (or NaN) cap never has a
  // finite candidate; both solvers must refuse rather than invent a rate.
  ResourcePool pool;
  const auto r = pool.add("r", 100.0);
  for (const double bad_cap : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    FlowSpec finite;
    finite.usage = {{r, 1.0, 1.0}};
    FlowSpec unbounded;
    unbounded.cap_Bps = bad_cap;
    const std::vector<FlowSpec> flows{finite, unbounded};
    EXPECT_THROW(oracle::maxmin_allocate(pool, flows), xfl::ContractViolation);
    EXPECT_THROW(maxmin_allocate(pool, flows), xfl::ContractViolation);
  }
}

// Component-local re-solves (DirtyComponents). Replay mirrors the
// simulator's bookkeeping: "transfers" live in a list with swap-remove,
// single-resource "backgrounds" toggle on and off, and the flow list is the
// transfers in list order followed by the active backgrounds. Each event
// marks the resources whose inputs it changed; resolve() gathers and solves
// only that part and writes its rates and loads back. After every event,
// every rate and load must equal a full oracle solve bit for bit.
class Replay {
 public:
  /// `mark_moved` applies the swap-remove rule: a transfer moved by a
  /// removal is marked, since its position among its component's flows
  /// changed.
  Replay(ResourcePool pool, bool mark_moved)
      : pool_(std::move(pool)),
        mark_moved_(mark_moved),
        loads_(pool_.size(), 0.0) {}

  void add_transfer(FlowSpec flow) {
    dirty_.mark(flow.usage);
    transfers_.push_back({std::move(flow), 0.0});
  }

  void remove_transfer(std::size_t slot) {
    dirty_.mark(transfers_[slot].flow.usage);
    transfers_[slot] = transfers_.back();
    transfers_.pop_back();
    if (mark_moved_ && slot < transfers_.size())
      dirty_.mark(transfers_[slot].flow.usage);
  }

  void add_background(ResourceId resource, double weight) {
    backgrounds_.push_back({resource, weight, 0.0, 0.0});
  }

  /// demand 0 switches the background off.
  void set_background(std::size_t b, double demand) {
    backgrounds_[b].demand = demand;
    dirty_.mark(backgrounds_[b].resource);
  }

  void set_capacity(ResourceId r, double capacity) {
    pool_.set_capacity(r, capacity);
    dirty_.mark(r);
  }

  std::size_t transfers() const { return transfers_.size(); }
  /// Flows that full solves would have solved, over every resolve().
  std::size_t offered() const { return offered_; }
  std::size_t backgrounds() const { return backgrounds_.size(); }

  /// Re-solve what the marks reach. Returns the flows re-solved.
  std::size_t resolve() {
    const auto flows = flow_list();
    offered_ += flows.size();
    SubProblem sub;
    dirty_.gather(pool_, flows, sub);
    const auto rates = maxmin_allocate(sub.capacities, sub.flows);
    for (std::size_t k = 0; k < sub.flows.size(); ++k)
      *rate_slot(sub.flow_ids[k]) = rates[k];
    for (const ResourceId r : sub.resource_ids) loads_[r] = 0.0;
    for (std::size_t k = 0; k < sub.flows.size(); ++k)
      for (const auto& use : sub.flows[k].usage)
        loads_[sub.resource_ids[use.resource]] +=
            rates[k] * use.consumption_factor;
    return sub.flows.size();
  }

  /// Mismatches against a full oracle solve of the current flow list.
  int mismatches() {
    const auto flows = flow_list();
    const auto expected = oracle::maxmin_allocate(pool_, flows);
    std::vector<double> expected_loads(pool_.size(), 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f)
      for (const auto& use : flows[f].usage)
        expected_loads[use.resource] += expected[f] * use.consumption_factor;
    int bad = 0;
    for (std::size_t f = 0; f < flows.size(); ++f)
      if (std::bit_cast<std::uint64_t>(*rate_slot(f)) !=
          std::bit_cast<std::uint64_t>(expected[f]))
        ++bad;
    for (std::size_t r = 0; r < pool_.size(); ++r)
      if (std::bit_cast<std::uint64_t>(loads_[r]) !=
          std::bit_cast<std::uint64_t>(expected_loads[r]))
        ++bad;
    return bad;
  }

 private:
  struct Transfer {
    FlowSpec flow;
    double rate;
  };
  struct Background {
    ResourceId resource;
    double weight;
    double demand;
    double rate;
  };

  std::vector<FlowSpec> flow_list() {
    std::vector<FlowSpec> flows;
    active_.clear();
    for (const auto& t : transfers_) flows.push_back(t.flow);
    for (std::size_t b = 0; b < backgrounds_.size(); ++b) {
      if (backgrounds_[b].demand <= 0.0) continue;
      active_.push_back(b);
      FlowSpec flow;
      flow.usage = {{backgrounds_[b].resource, backgrounds_[b].weight, 1.0}};
      flow.cap_Bps = backgrounds_[b].demand;
      flows.push_back(std::move(flow));
    }
    return flows;
  }

  double* rate_slot(std::size_t f) {
    return f < transfers_.size() ? &transfers_[f].rate
                                 : &backgrounds_[active_[f - transfers_.size()]].rate;
  }

  ResourcePool pool_;
  bool mark_moved_;
  DirtyComponents dirty_;
  std::vector<Transfer> transfers_;
  std::vector<Background> backgrounds_;
  std::vector<std::size_t> active_;  ///< Flow index - transfers -> background.
  std::vector<double> loads_;
  std::size_t offered_ = 0;
};

/// A seeded random event sequence drawn from few values, so that caps,
/// shares and fill levels tie exactly and the tie-break decides often.
/// Returns the flows re-solved and the flows full solves would have solved.
std::pair<std::size_t, std::size_t> replay_random(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t resources = 10;
  ResourcePool pool;
  for (std::size_t r = 0; r < resources; ++r)
    pool.add("r" + std::to_string(r), pick_from<double>(rng, {60.0, 120.0}));
  Replay replay(std::move(pool), true);
  for (std::size_t b = 0; b < 6; ++b)
    replay.add_background(pick(rng, resources), pick_from<double>(rng, {1.0, 2.0}));
  std::size_t solved = 0;
  for (int step = 0; step < 200; ++step) {
    const double event = rng.uniform();
    if (event < 0.35 || replay.transfers() == 0) {
      FlowSpec flow;
      const auto uses = rng.uniform_int(1, 3);
      for (std::int64_t u = 0; u < uses; ++u)
        flow.usage.push_back({pick(rng, resources),
                              pick_from<double>(rng, {1.0, 2.0}),
                              pick_from<double>(rng, {1.0, 1.0, 1.5})});
      flow.cap_Bps = pick_from<double>(rng, {10.0, 20.0, 1.0e15});
      replay.add_transfer(std::move(flow));
    } else if (event < 0.6) {
      replay.remove_transfer(pick(rng, replay.transfers()));
    } else if (event < 0.85) {
      replay.set_background(pick(rng, replay.backgrounds()),
                            rng.bernoulli(0.5)
                                ? 0.0
                                : pick_from<double>(rng, {10.0, 20.0, 30.0}));
    } else {
      replay.set_capacity(pick(rng, resources),
                          pick_from<double>(rng, {0.0, 60.0, 120.0, 180.0}));
    }
    solved += replay.resolve();
    EXPECT_EQ(replay.mismatches(), 0) << "step " << step;
    if (::testing::Test::HasFailure()) break;
  }
  return {solved, replay.offered()};
}

TEST(MaxMinComponents, RandomReplaysMatchFullSolve) {
  std::size_t solved = 0;
  std::size_t offered = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto [seed_solved, seed_offered] = replay_random(seed);
    solved += seed_solved;
    offered += seed_offered;
  }
  // The replays re-solve a strict part of what full solves would.
  EXPECT_GT(solved, 0u);
  EXPECT_LT(solved, offered);
}

/// Three transfers tie on one resource of capacity 1: the first in input
/// order freezes at 1/3 rounded down, the other two at the rounded-up
/// remainder. Removing a transfer elsewhere moves the last of the three to
/// the front of the list, so it is now the one that freezes first.
int swap_remove_mismatches(bool mark_moved) {
  ResourcePool pool;
  const auto lone = pool.add("lone", 1.0);
  const auto shared = pool.add("shared", 1.0);
  Replay replay(std::move(pool), mark_moved);
  FlowSpec first;
  first.usage = {{lone, 1.0, 1.0}};
  replay.add_transfer(first);
  FlowSpec tied;
  tied.usage = {{shared, 1.0, 1.0}};
  for (int i = 0; i < 3; ++i) replay.add_transfer(tied);
  replay.resolve();
  EXPECT_EQ(replay.mismatches(), 0);
  replay.remove_transfer(0);
  replay.resolve();
  return replay.mismatches();
}

TEST(MaxMinComponents, SwapRemoveMarksTheMovedFlow) {
  EXPECT_EQ(swap_remove_mismatches(true), 0);
  // Without the rule the moved flow keeps its old rate, and so do the two
  // flows that now sit ahead of it: the tie breaks the other way.
  EXPECT_GT(swap_remove_mismatches(false), 0);
}

TEST(MaxMinComponents, UntouchedComponentsAreNotGathered) {
  ResourcePool pool;
  for (int r = 0; r < 4; ++r) pool.add("r" + std::to_string(r), 100.0);
  std::vector<FlowSpec> flows(4);
  flows[0].usage = {{0, 1.0, 1.0}, {1, 1.0, 1.0}};
  flows[1].usage = {{2, 1.0, 1.0}};
  flows[2].usage = {{1, 2.0, 1.0}};
  flows[3].usage = {{3, 1.0, 1.0}};
  DirtyComponents dirty;
  SubProblem sub;
  dirty.mark(0);
  dirty.gather(pool, flows, sub);
  EXPECT_EQ(sub.flow_ids, (std::vector<std::uint32_t>{0, 2}));
  ASSERT_EQ(sub.resource_ids.size(), 2u);
  EXPECT_EQ(sub.resource_ids[0], 0u);
  EXPECT_EQ(sub.resource_ids[1], 1u);
  EXPECT_EQ(sub.flows[1].usage[0].resource, 1u);  // Local id of resource 1.
  EXPECT_TRUE(dirty.empty());
  // A marked resource no flow crosses comes back alone, so its load can be
  // reset; nothing is gathered when nothing is marked.
  dirty.mark(3);
  flows.pop_back();
  dirty.gather(pool, flows, sub);
  EXPECT_TRUE(sub.flow_ids.empty());
  EXPECT_EQ(sub.resource_ids, (std::vector<ResourceId>{3}));
  dirty.gather(pool, flows, sub);
  EXPECT_TRUE(sub.flow_ids.empty());
  EXPECT_TRUE(sub.resource_ids.empty());
}

}  // namespace
}  // namespace xfl::sim
