// Open-loop load generator for the in-process PredictionServer. Each
// connection sends on a fixed schedule (evenly spaced, interleaved across
// connections) whether or not earlier replies have come back, so a slow
// server builds a queue instead of slowing the offered load. Latency is
// timed from each request's scheduled send time, and how late the
// generator itself ran is recorded separately. Every reply is checked
// bit-for-bit against a direct predictor call on the same request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "harness.hpp"

namespace perfbench {

/// The distinct requests a workload draws from, with the expected
/// answers computed by direct predict_rates_mbps / explain_rates_mbps
/// calls on the served model.
struct RequestPool {
  std::vector<xfl::core::PlannedTransfer> transfers;
  std::vector<xfl::features::ContentionFeatures> loads;
  std::vector<double> rates;
  std::vector<xfl::core::RateExplanation> explanations;
  std::size_t unseen = 0;  ///< Entries on edges the training log never had.
};

struct LoadConfig {
  bool binary = true;
  double rate = 0.0;     ///< Total offered requests per second.
  double seconds = 0.0;  ///< Schedule length.
  double explain_share = 0.0;
  double feedback_share = 0.0;
  std::uint64_t seed = 0;  ///< Request kinds, pool picks and feedback noise.
  std::size_t connections = 1;
  std::size_t threads = 1;
  std::uint16_t port = 0;
};

struct LoadResult {
  RungResult rung;
  std::vector<double> latencies_us;  ///< One per ok reply, from schedule.
  std::uint64_t scheduled = 0;   ///< Requests on the schedule; rung.sent of them went out.
  /// Scheduled but never answered: unanswered at the drain deadline, or
  /// never sent because the server closed the connection. Counted in
  /// rung.errors too; rung.errors - lost are the bad replies (error
  /// replies other than overloaded/timeout, unparseable replies, replies
  /// to no outstanding request).
  std::uint64_t lost = 0;
  std::uint64_t checked = 0;     ///< Replies compared with a direct call.
  std::uint64_t mismatches = 0;  ///< Replies that differed from it.
  std::uint64_t predicts = 0;
  std::uint64_t explains = 0;
  std::uint64_t feedbacks = 0;
  std::uint64_t feedback_matched = 0;
  /// Feedback slots that found no answered prediction yet and sent a
  /// predict instead (only at the very start of a schedule).
  std::uint64_t feedback_deferred = 0;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;  ///< Whole process over the schedule + drain.
  double loadgen_cpu_s = 0.0;  ///< The generator threads' share of it.
};

/// Run one schedule against the server on `config.port`. Throws on
/// connection failure; reply-level problems are counted, never thrown.
LoadResult run_open_loop(const LoadConfig& config, const RequestPool& pool);

}  // namespace perfbench
