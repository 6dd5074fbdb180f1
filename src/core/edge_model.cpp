#include "core/edge_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "features/dataset.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"

namespace xfl::core {

namespace {

/// Fit the explanation models on the full (thresholded) dataset with Nflt
/// included and write the Fig. 9 / Fig. 12 blocks of the report.
void run_explanation(const AnalysisContext& context, const logs::EdgeKey& edge,
                     const EdgeModelConfig& config, EdgeModelReport& report) {
  features::DatasetOptions options;
  options.include_nflt = true;
  options.load_threshold = config.load_threshold;
  const auto dataset =
      features::build_edge_dataset(context.log, context.contention, edge, options);

  report.feature_names = dataset.feature_names;
  const auto keep = features::variance_mask(dataset.x, config.mode_threshold);
  report.eliminated.resize(keep.size());
  for (std::size_t c = 0; c < keep.size(); ++c)
    report.eliminated[c] = !keep[c];

  const auto reduced = dataset.select_features(keep);
  if (reduced.cols() == 0 || reduced.rows() < reduced.cols() + 2) {
    report.lr_coefficients.assign(keep.size(), 0.0);
    report.xgb_importance.assign(keep.size(), 0.0);
    return;
  }

  ml::StandardScaler scaler;
  const auto x_std = scaler.fit_transform(reduced.x);

  ml::LinearRegression linear;
  linear.fit(x_std, reduced.y);

  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed;
  ml::GradientBoostedTrees boosted(gbt_config);
  boosted.fit(x_std, reduced.y);
  const auto importance = boosted.feature_importance();

  // Scatter the reduced-model numbers back to the full 16-column layout,
  // scaling linear coefficients so the per-edge maximum is 1 (Fig. 9:
  // "we scaled the coefficients by dividing each coefficient into the
  // maximum value of its edge").
  report.lr_coefficients.assign(keep.size(), 0.0);
  report.xgb_importance.assign(keep.size(), 0.0);
  double max_coefficient = 0.0;
  for (const double beta : linear.coefficients())
    max_coefficient = std::max(max_coefficient, std::fabs(beta));
  std::size_t reduced_column = 0;
  for (std::size_t c = 0; c < keep.size(); ++c) {
    if (!keep[c]) continue;
    const double beta = linear.coefficients()[reduced_column];
    report.lr_coefficients[c] =
        max_coefficient > 0.0 ? std::fabs(beta) / max_coefficient : 0.0;
    report.xgb_importance[c] = importance[reduced_column];
    ++reduced_column;
  }
}

/// Fit the prediction models (Nflt excluded) on a 70/30 split and write the
/// error block of the report.
void run_prediction(const AnalysisContext& context, const logs::EdgeKey& edge,
                    const EdgeModelConfig& config, EdgeModelReport& report) {
  features::DatasetOptions options;
  options.include_nflt = false;
  options.load_threshold = config.load_threshold;
  const auto dataset =
      features::build_edge_dataset(context.log, context.contention, edge, options);
  report.samples = dataset.rows();
  XFL_EXPECTS(dataset.rows() >= 20);

  const auto keep = features::variance_mask(dataset.x, config.mode_threshold);
  auto reduced = dataset.select_features(keep);
  if (reduced.cols() == 0) reduced = dataset;  // Degenerate: keep everything.

  // Mix the edge into the split seed so edges do not share split patterns.
  const std::uint64_t split_seed =
      config.seed ^ (static_cast<std::uint64_t>(edge.src) << 32) ^ edge.dst;
  const auto split =
      features::split_dataset(reduced, config.train_fraction, split_seed);

  ml::StandardScaler scaler;
  const auto x_train = scaler.fit_transform(split.train.x);
  const auto x_test = scaler.transform(split.test.x);

  ml::LinearRegression linear;
  linear.fit(x_train, split.train.y);
  const auto lr_predictions = linear.predict(x_test);
  report.lr_mdape = ml::mdape(split.test.y, lr_predictions);
  report.lr_ape = ml::ape_summary(split.test.y, lr_predictions);
  report.lr_r2 = linear.r_squared(x_test, split.test.y);

  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed + 1;
  ml::GradientBoostedTrees boosted(gbt_config);
  boosted.fit(x_train, split.train.y);
  // Flattened batch engine, serial: study_edges may already fan the study
  // out per edge.
  std::vector<double> xgb_predictions(x_test.rows());
  boosted.predict_batch(x_test, xgb_predictions);
  report.xgb_mdape = ml::mdape(split.test.y, xgb_predictions);
  report.xgb_ape = ml::ape_summary(split.test.y, xgb_predictions);
}

}  // namespace

EdgeModelReport study_edge(const AnalysisContext& context,
                           const logs::EdgeKey& edge,
                           const EdgeModelConfig& config) {
  EdgeModelReport report;
  report.edge = edge;
  run_explanation(context, edge, config, report);
  run_prediction(context, edge, config, report);
  return report;
}

std::vector<EdgeModelReport> study_edges(const AnalysisContext& context,
                                         const std::vector<logs::EdgeKey>& edges,
                                         const EdgeModelConfig& config,
                                         ThreadPool* pool) {
  std::vector<EdgeModelReport> reports(edges.size());
  // Each edge's study is independent and serial, so one edge per worker
  // is the only grain of parallelism; reports land in edge order.
  auto body = [&](std::size_t i) {
    reports[i] = study_edge(context, edges[i], config);
  };
  if (pool != nullptr) {
    pool->parallel_for(edges.size(), body);
  } else {
    for (std::size_t i = 0; i < edges.size(); ++i) body(i);
  }
  return reports;
}

}  // namespace xfl::core
