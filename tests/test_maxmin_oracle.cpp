// Equivalence of the incremental max-min solver with the full-rescan
// reference solver (maxmin_oracle.hpp): rates must match bit for bit,
// because the simulator's logs, and every model fitted on them, depend on
// the exact arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
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

}  // namespace
}  // namespace xfl::sim
