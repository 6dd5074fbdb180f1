// Fixed workload constants. Offered rates, ladders and latency limits are
// never derived from a measurement at run time, so a parent commit and a
// change see the same offered load. BENCHMARK.json's workload notes
// restate them.
//
// The serve workloads gate on server CPU per request (cpu_us_per_op): on a
// shared 4-vCPU host, latency and the sustained rate swing with the
// virtual CPUs' scheduling stalls from one minute to the next, so they
// are reported (loadgen.* in the traced run, and in every run's report)
// but carry no bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "report.hpp"

namespace perfbench {

/// Share of log records (by seeded hash of the record id) the offline
/// model trains on; the rest is the held-out test set.
inline constexpr double kTrainFraction = 0.70;

/// Offline set-up builds the scenario this many times (about 20 ms each)
/// and reports the median, so set-up time is steady enough to guard.
inline constexpr int kScenarioBuilds = 25;

/// offline_production runs the pipeline until --seconds have passed, and at
/// least this many times, so every run reports the same order statistic.
inline constexpr int kMinOfflineIterations = 2;

/// Every workload runs the train job this many times per simulated log
/// (the serve workloads as part of set-up).
inline constexpr int kTrainRepeats = 3;

/// A serve workload's traffic. The latency limit applies at p90 (see
/// RungLimits); the binary mix is predict-only. Each reference rate is
/// about half the rate its mix sustains on a quiet 4-vCPU host, so the
/// server's threads stay busy: far below that, most requests wake an idle
/// thread, and CPU per request followed the host's wake-up cost (JSON at
/// 10k req/s read 34-63 us over ten seeds; at 38k, 44-46 us).
struct ServeProfile {
  std::string_view name;
  bool binary = true;
  double reference_rps = 0.0;
  double ladder_min_rps = 0.0;
  double ladder_max_rps = 0.0;
  double p90_limit_us = 0.0;
  /// Request mix shares (predict = the rest).
  double explain_share = 0.0;
  double feedback_share = 0.0;
  bool journal = false;  ///< Attach a RetrainService journal.
};

inline constexpr ServeProfile kBinaryPredict{"serve_binary_predict", true, 100e3, 50e3, 400e3,
                                             2000.0, 0.0, 0.0, false};
inline constexpr ServeProfile kJsonMixed{"serve_json_mixed", false, 30e3, 5e3, 80e3,
                                         2000.0, 0.10, 0.10, true};

/// Open-loop generator shape: connections spread over loadgen threads,
/// both capped by the host's core count at run time.
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kLoadgenThreads = 2;

/// Ladder rungs grow geometrically by this factor from min to max.
inline constexpr double kLadderStep = 1.07;
/// Share of --seconds spent on the reference rate (split over repeats,
/// whose median is reported); the rest goes to the ladder probes.
inline constexpr double kReferenceShare = 0.5;
inline constexpr int kReferenceRepeats = 5;

/// Request pool: distinct requests each connection cycles through, and
/// the share of them on edges the log never saw (global fallback).
inline constexpr std::size_t kPoolSize = 8192;
inline constexpr double kUnseenEdgeShare = 0.10;
/// Feedback reports served rate x (1 +/- this), far under the drift
/// threshold, so the alarm never rises and the model never swaps.
inline constexpr double kFeedbackNoise = 0.05;
inline constexpr std::uint16_t kExplainTopK = 5;
/// Admission queue per batcher shard (`xferlearn serve --queue-capacity`).
/// The server's default, 1024, holds about 40 ms of the binary reference
/// rate per shard: when the host stalls the generator or a batcher thread
/// for longer (the generator then sends everything that fell due at once),
/// the queue overflows, and identical code rejected 2241 of 17.6M requests
/// in one set of ten runs and none in another. 16384 absorbs a 650 ms
/// stall at the binary reference rate and 2 s at the JSON one, while a
/// probe far above capacity still fills it and is rejected within a second.
inline constexpr std::size_t kQueueCapacity = 16384;

/// How long after a schedule ends unanswered requests may still arrive
/// before they count as lost.
inline constexpr double kDrainSeconds = 3.0;

/// A rung whose sends ran later (at p90) than this share of its latency
/// limit measured the generator, not the server: generator-limited.
inline constexpr double kLateShareOfLimit = 0.5;

std::vector<double> ladder(const ServeProfile& profile);

struct RunContext {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path workdir;  ///< Fresh, empty, removed after the run.
  SpanRecorder* spans = nullptr;  ///< Enabled only in the traced run.
};

/// What a workload hands back: its metrics (end-to-end, or per-layer in
/// the traced run), the operation tally, and details for the report.
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< Failed output checks: not correct.
  JsonObject detail;
  std::string kernel;
  /// Traced runs: the measured (traced) phase, for the unattributed
  /// share, and traced / untraced end-to-end time.
  std::uint64_t window_start_ns = 0;
  std::uint64_t window_end_ns = 0;
  double overhead_ratio = 0.0;
};

struct PipelineResult;
/// Count a pipeline run's output checks (and its failures) into `out`.
void record_pipeline(const PipelineResult& r, Outcome& out);

Outcome run_offline(const RunContext& context);
Outcome run_serve(const ServeProfile& profile, const RunContext& context);

}  // namespace perfbench
