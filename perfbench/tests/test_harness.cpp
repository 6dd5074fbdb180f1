// Self-tests of the benchmark's measurement rules: the percentile-support
// helper, the open-loop ladder verdict and sustained-rate rule, and span
// self-time arithmetic.
#include <gtest/gtest.h>

#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(SupportedTail, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(supports_percentile(19, 50.0));
  EXPECT_TRUE(supports_percentile(20, 50.0));
  EXPECT_TRUE(supports_percentile(100, 90.0));
  EXPECT_FALSE(supports_percentile(100, 99.0));
  EXPECT_FALSE(supports_percentile(999, 99.0));  // ceil(989.01) = 990: 9 beyond.
  EXPECT_TRUE(supports_percentile(1000, 99.0));
  EXPECT_FALSE(supports_percentile(9999, 99.9));
  EXPECT_TRUE(supports_percentile(10000, 99.9));
}

TEST(SupportedTail, PicksTheHighestSupportedPercentile) {
  EXPECT_FALSE(supported_tail(ramp(19)).has_value());

  const auto small = ramp(100);
  const auto p90 = supported_tail(small);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->pct, 90.0);
  EXPECT_EQ(p90->beyond, 10u);
  EXPECT_DOUBLE_EQ(p90->value, percentile_sorted(small, 90.0));

  const auto large = ramp(10000);
  const auto p999 = supported_tail(large);
  ASSERT_TRUE(p999.has_value());
  EXPECT_EQ(p999->pct, 99.9);
  EXPECT_EQ(p999->beyond, 10u);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100.0), 4.0);
}

TEST(Percentile, MedianOfRepeats) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({9.0, 4.0}), 6.5);
  EXPECT_EQ(median({5.0, 3.0, 4.0}), 4.0);
  // One fast and one slow outlier of five do not move it.
  EXPECT_EQ(median({900.0, 210.0, 220.0, 100.0, 230.0}), 220.0);
}

RungLimits limits() {
  RungLimits l;
  l.p90_limit_us = 1000.0;
  l.late_limit_us = 500.0;
  l.backlog_slack = 64;
  return l;
}

RungResult good_rung(double rate) {
  RungResult r;
  r.rate = rate;
  r.sent = r.ok = 10000;
  r.p50_us = 100.0;
  r.p90_us = 400.0;
  r.p99_us = 3000.0;  // Host stalls in the tail do not fail a rung.
  r.late_p90_us = 20.0;
  r.late_p99_us = 2000.0;
  r.outstanding_mid = 10;
  r.outstanding_end = 12;
  return r;
}

TEST(Ladder, JudgesEachRule) {
  EXPECT_EQ(judge_rung(good_rung(1.0), limits()), Verdict::kMet);

  auto late = good_rung(1.0);
  late.late_p90_us = 600.0;
  late.p90_us = 5000.0;  // Generator lateness takes precedence: never "met".
  EXPECT_EQ(judge_rung(late, limits()), Verdict::kGeneratorLimited);

  auto rejected = good_rung(1.0);
  rejected.rejected = 1;
  rejected.ok -= 1;
  EXPECT_EQ(judge_rung(rejected, limits()), Verdict::kRejected);

  auto lost = good_rung(1.0);
  lost.ok -= 1;  // Sent but never answered.
  EXPECT_EQ(judge_rung(lost, limits()), Verdict::kRejected);

  auto growing = good_rung(1.0);
  growing.outstanding_mid = 100;
  growing.outstanding_end = 165;  // 100 + 64 slack is the most allowed.
  EXPECT_EQ(judge_rung(growing, limits()), Verdict::kBacklog);
  growing.outstanding_end = 164;
  EXPECT_EQ(judge_rung(growing, limits()), Verdict::kMet);

  auto draining = good_rung(1.0);
  draining.outstanding_mid = 500;
  draining.outstanding_end = 0;  // Backlog judged end against middle only.
  EXPECT_EQ(judge_rung(draining, limits()), Verdict::kMet);

  auto slow = good_rung(1.0);
  slow.p90_us = 1000.5;
  EXPECT_EQ(judge_rung(slow, limits()), Verdict::kLatency);

  auto sparse = good_rung(1.0);
  sparse.sent = sparse.ok = 99;  // p90 needs 100 samples.
  EXPECT_EQ(judge_rung(sparse, limits()), Verdict::kTooFewSamples);
}

TEST(Ladder, SustainedRateIsTheHighestRateWithEveryLowerRateMet) {
  auto failed = good_rung(300.0);
  failed.p90_us = 2000.0;
  auto spurious = good_rung(400.0);  // Met above an unmet rung: not counted.
  const std::vector<RungResult> probes = {spurious, good_rung(200.0), failed, good_rung(100.0)};
  EXPECT_EQ(sustained_rate(probes, limits()), 200.0);

  auto lowest_failed = good_rung(100.0);
  lowest_failed.late_p90_us = 900.0;
  EXPECT_EQ(sustained_rate(std::vector<RungResult>{lowest_failed, good_rung(200.0)}, limits()),
            0.0);
}

TEST(Ladder, ARungIsMetWhenEitherMeasurementMeetsIt) {
  auto stalled = good_rung(200.0);
  stalled.p90_us = 3000.0;
  const std::vector<RungResult> probes = {good_rung(100.0), stalled, good_rung(200.0)};
  EXPECT_TRUE(rung_met(probes, 200.0, limits()));
  EXPECT_FALSE(rung_met(probes, 300.0, limits()));
  EXPECT_EQ(sustained_rate(probes, limits()), 200.0);
}

TEST(Ladder, BisectionFindsTheCapacityBoundary) {
  std::vector<double> ladder;
  for (int i = 1; i <= 31; ++i) ladder.push_back(10.0 * i);
  for (const double capacity : {5.0, 10.0, 155.0, 200.0, 310.0, 1000.0}) {
    int calls = 0;
    const auto probes = bisect_ladder(ladder, limits(), [&](std::size_t i) {
      ++calls;
      auto r = good_rung(ladder[i]);
      if (ladder[i] > capacity) r.p90_us = 5000.0;
      return r;
    });
    const double expected = capacity < 10.0 ? 0.0 : std::min(310.0, 10.0 * static_cast<int>(capacity / 10.0));
    EXPECT_EQ(sustained_rate(probes, limits()), expected) << capacity;
    // ceil(log2(32)) = 5 rungs, an unmet rung measured twice.
    EXPECT_LE(calls, 10) << capacity;
  }
}

TEST(Ladder, BisectionRetriesAFailedRungOnce) {
  const std::vector<double> ladder = {100.0, 200.0, 300.0};
  int calls_at_200 = 0;
  const auto probes = bisect_ladder(ladder, limits(), [&](std::size_t i) {
    auto r = good_rung(ladder[i]);
    if (ladder[i] == 200.0 && calls_at_200++ == 0) r.p90_us = 9000.0;  // One stall.
    if (ladder[i] == 300.0) r.outstanding_end = 10000;
    return r;
  });
  EXPECT_EQ(calls_at_200, 2);
  EXPECT_EQ(sustained_rate(probes, limits()), 200.0);
}

SpanRecord span(const char* name, std::uint64_t start, std::uint64_t end, int parent) {
  SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  const std::vector<SpanRecord> spans = {
      span("pipeline.train", 0, 100, -1),
      span("core.fit", 10, 60, 0),
      span("ml.gbt_fit", 20, 50, 1),
      span("core.save", 70, 80, 0),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100u - 50u - 10u);
  EXPECT_EQ(self[1], 50u - 30u);  // Grandchild leaves its parent, not the root.
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 10u);

  const auto layers = layer_self_seconds(spans);
  EXPECT_DOUBLE_EQ(layers.at("pipeline"), 40e-9);
  EXPECT_DOUBLE_EQ(layers.at("core"), 30e-9);
  EXPECT_DOUBLE_EQ(layers.at("ml"), 30e-9);
}

TEST(Spans, OverlappingChildrenAreSubtractedOnce) {
  // Two children on other threads overlap in [30, 50); one also runs past
  // the parent's end. Only the covered union inside the parent counts.
  const std::vector<SpanRecord> spans = {
      span("serve.reference", 0, 100, -1),
      span("core.predict", 10, 50, 0),
      span("core.predict", 30, 70, 0),
      span("core.explain", 90, 130, 0),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100u - 60u - 10u);
  EXPECT_EQ(self[3], 40u);
}

TEST(Spans, CoverageClipsToTheWindow) {
  EXPECT_EQ(covered_ns(100, 200, {{50, 120}, {110, 130}, {150, 260}, {300, 400}}), 30u + 50u);
  EXPECT_EQ(covered_ns(0, 10, {}), 0u);
  EXPECT_EQ(layer_of("serve.protocol.json"), "serve");
  EXPECT_EQ(layer_of("bench"), "bench");
}

TEST(Spans, RecorderNestsOnOneThreadAndRecordsNothingWhenOff) {
  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "sim.run"); }
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder on(true);
  {
    SpanRecorder::Scope outer(on, "pipeline.simulate");
    SpanRecorder::Scope inner(on, "sim.run");
  }
  { SpanRecorder::Scope next(on, "logs.write_csv"); }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

}  // namespace
}  // namespace perfbench
