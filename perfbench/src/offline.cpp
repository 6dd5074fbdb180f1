// offline_production: the simulate and train jobs plus held-out serving
// through the library API. Simulation and GBT fitting do nearly all the
// work; the serve layer does none.
#include "features/contention.hpp"
#include "features/dataset.hpp"
#include "features/endpoint_stats.hpp"
#include "ml/gbt.hpp"
#include "ml/scaler.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The datasets and GBT fits TransferPredictor::fit performs, driven
/// directly so the features and ml layers are timed on their own.
void direct_fit_layers(const PipelineResult& r, SpanRecorder& spans, Metrics& m) {
  namespace features = xfl::features;
  const auto& log = r.train_log;
  std::vector<features::ContentionFeatures> contention;
  {
    SpanRecorder::Scope s(spans, "features.contention");
    const std::uint64_t t0 = now_ns();
    contention = features::compute_contention(log);
    m["features.contention_s"] = seconds_since(t0);
  }
  const auto capabilities = features::estimate_capabilities(log, contention);

  features::DatasetOptions options;
  options.include_nflt = false;
  options.load_threshold = xfl::core::TransferPredictor::Options{}.load_threshold;
  const std::size_t min_rows = xfl::core::TransferPredictor::Options{}.min_edge_transfers;
  std::vector<features::Dataset> datasets;
  {
    SpanRecorder::Scope s(spans, "features.dataset");
    const std::uint64_t t0 = now_ns();
    for (const auto& edge : log.edges_by_usage()) {
      if (log.edge_count(edge) < min_rows) break;
      auto dataset = features::build_edge_dataset(log, contention, edge, options);
      if (dataset.rows() >= min_rows) datasets.push_back(std::move(dataset));
    }
    datasets.push_back(features::build_global_dataset(log, contention, log.edges_by_usage(),
                                                      capabilities, options));
    m["features.dataset_s"] = seconds_since(t0);
  }

  auto& trees = xfl::obs::counter("gbt.fit.trees");
  const std::uint64_t trees0 = trees.value();
  double fit_s = 0.0;
  const std::uint64_t seed = xfl::core::TransferPredictor::Options{}.seed;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const auto x = xfl::ml::StandardScaler().fit_transform(datasets[d].x);
    xfl::ml::GbtConfig config;
    config.seed = d + 1 == datasets.size() ? seed + 1 : seed;  // Global model: seed + 1.
    xfl::ml::GradientBoostedTrees model(config);
    SpanRecorder::Scope s(spans, "ml.gbt_fit");
    const std::uint64_t t0 = now_ns();
    model.fit(x, datasets[d].y);
    fit_s += seconds_since(t0);
  }
  m["ml.gbt_fit_s"] = fit_s;
  m["ml.gbt_fits"] = static_cast<double>(datasets.size());
  m["ml.gbt_trees"] = static_cast<double>(trees.value() - trees0);
}

}  // namespace

Outcome run_offline(const RunContext& context) {
  Outcome out;
  SpanRecorder untraced(false);
  if (context.trace) {
    // Untraced pass first, then the traced pass whose spans and layer
    // figures are reported.
    const auto plain = run_pipeline(context.seed, context.workdir, untraced);
    record_pipeline(plain, out);
    out.window_start_ns = now_ns();
    const auto r = run_pipeline(context.seed, context.workdir, *context.spans);
    out.window_end_ns = now_ns();
    record_pipeline(r, out);
    out.overhead_ratio = (r.simulate_s + r.train_s) / (plain.simulate_s + plain.train_s);
    put_pipeline_layers(r, out.metrics);
    const auto rows = static_cast<double>(r.holdout.size());
    out.metrics["core.predict_batch_us_per_row"] = r.predict_holdout_s * 1e6 / rows;
    out.metrics["core.explain_batch_us_per_row"] = r.explain_holdout_s * 1e6 / rows;
    direct_fit_layers(r, *context.spans, out.metrics);
    return out;
  }

  // Set-up: the inputs, i.e. the production scenario, built a number of
  // times so the reported (median) time is steady.
  const double setup_s = time_scenario_builds(kScenarioBuilds);

  std::vector<double> simulate_s, train_s, cpu_us_per_record, mdape;
  PipelineResult last;
  const std::uint64_t t0 = now_ns();
  do {
    last = PipelineResult{};  // Free the previous iteration before the next.
    last = run_pipeline(context.seed, context.workdir, untraced, kTrainRepeats);
    record_pipeline(last, out);
    simulate_s.push_back(last.simulate_s);
    train_s.push_back(last.train_s);
    cpu_us_per_record.push_back(last.jobs_cpu_s * 1e6 / static_cast<double>(last.records));
    mdape.push_back(last.holdout_mdape_pct);
  } while (simulate_s.size() < kMinOfflineIterations || seconds_since(t0) < context.seconds);
  // Same seed, same model: every iteration must score identically.
  for (const double m : mdape) {
    ++out.attempted;
    if (!same_bits(m, mdape.front())) {
      ++out.failed;
      out.problems.push_back("held-out MdAPE differs between iterations of one seed");
    }
  }

  auto& m = out.metrics;
  m["setup_s"] = setup_s;
  m["simulate_s"] = median(simulate_s);
  m["train_s"] = median(train_s);
  m["holdout_mdape_pct"] = mdape.front();
  m["cpu_us_per_op"] = median(cpu_us_per_record);
  m["peak_rss_mb"] = peak_rss_mb();
  out.detail.num("iterations", static_cast<double>(simulate_s.size()))
      .num("records", static_cast<double>(last.records))
      .num("holdout_rows", static_cast<double>(last.holdout.size()))
      .num("edge_models", static_cast<double>(last.edge_models))
      .num("sim_events", static_cast<double>(last.sim_events))
      .str("cpu_us_per_op", "process CPU per log record over the simulate and train jobs");
  return out;
}

}  // namespace perfbench
