// The offline pipeline every workload runs: the `xferlearn simulate` job,
// the `xferlearn train` job on a seeded 70% split, then a save/load round
// trip and held-out prediction + explanation with output checks. The
// offline workload measures it; the serve workloads run it as set-up and
// serve the model it produced.
//
// Every seed simulates the same scenario, the library's default production
// scenario (the log `xferlearn simulate` writes); the seed picks the
// train/holdout split, and on the serve workloads the request stream. The
// simulate job's work differs by about 15% (IQR / median) between scenario
// seeds, which alone would take most of a metric's bound; with one
// scenario the job times move with the program and the host only.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "harness.hpp"
#include "logs/log_store.hpp"
#include "report.hpp"

namespace perfbench {

struct PipelineResult {
  // The simulate job.
  double make_scenario_s = 0.0;
  double sim_run_s = 0.0;
  double write_csv_s = 0.0;
  double simulate_s = 0.0;
  std::uint64_t sim_events = 0;
  // The train job.
  double read_csv_s = 0.0;
  double analyze_s = 0.0;
  double fit_s = 0.0;
  double fit_cpu_ratio = 0.0;
  double save_s = 0.0;
  double train_s = 0.0;
  double jobs_cpu_s = 0.0;  ///< Process CPU of the simulate job + one train job.
  std::size_t records = 0;
  std::size_t edge_models = 0;
  // Held-out serving.
  double load_s = 0.0;
  double predict_holdout_s = 0.0;
  double explain_holdout_s = 0.0;
  double holdout_mdape_pct = 0.0;
  std::string kernel;
  // Output checks: each held-out row is one predict check (loaded model
  // bit-identical to the in-memory one) and one explain check (rate
  // equals predict, contributions + bias rebuild raw_mbps exactly).
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;

  // Artifacts the later phases use.
  std::shared_ptr<const xfl::core::TransferPredictor> model;  ///< Loaded from disk.
  xfl::logs::LogStore log;  ///< The full log as read back.
  xfl::logs::LogStore train_log;  ///< The 70% the model was fitted on.
  std::vector<xfl::features::ContentionFeatures> contention;  ///< Parallel to log.
  std::vector<std::size_t> holdout;  ///< Log indices of the 30%.
  std::vector<xfl::core::PlannedTransfer> holdout_transfers;
  std::vector<xfl::features::ContentionFeatures> holdout_loads;
};

/// Build the production scenario `builds` times; returns the median
/// seconds (the offline workload's set-up).
double time_scenario_builds(int builds);

/// Run the whole pipeline once in `workdir` (created by the caller) with
/// the log split by `seed`, the train job `train_repeats` times (train_s
/// is their median; the per-layer train figures and the model
/// come from the last repeat).
PipelineResult run_pipeline(std::uint64_t seed, const std::filesystem::path& workdir,
                            SpanRecorder& spans, int train_repeats = 1);

/// The pipeline's per-layer figures (sim, logs, core) into `metrics`.
void put_pipeline_layers(const PipelineResult& r, Metrics& metrics);

/// True when the explanation's contributions (summed in ascending
/// feature order) plus bias reproduce raw_mbps bit-exactly, and the
/// served rate is max(raw, 0.01) bit-for-bit.
bool reconstructs_exactly(const xfl::core::RateExplanation& explanation);

}  // namespace perfbench
