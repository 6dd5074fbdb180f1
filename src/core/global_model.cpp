#include "core/global_model.hpp"

#include "common/contracts.hpp"
#include "features/dataset.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"

namespace xfl::core {

GlobalModelReport study_global_model(const AnalysisContext& context,
                                     const std::vector<logs::EdgeKey>& edges,
                                     const GlobalModelConfig& config) {
  XFL_EXPECTS(!edges.empty());
  features::DatasetOptions options;
  options.include_nflt = false;
  options.load_threshold = config.load_threshold;
  options.edge_rtt_s = config.edge_rtt_s;
  auto dataset = features::build_global_dataset(
      context.log, context.contention, edges, context.capabilities, options);

  if (config.without_capability_features) {
    std::vector<bool> keep(dataset.cols(), true);
    keep[dataset.cols() - 1] = false;  // RImax_dst
    keep[dataset.cols() - 2] = false;  // ROmax_src
    dataset = dataset.select_features(keep);
  }

  GlobalModelReport report;
  report.samples = dataset.rows();
  report.edges = edges.size();
  XFL_EXPECTS(dataset.rows() >= 50);

  const auto keep = features::variance_mask(dataset.x, config.mode_threshold);
  auto reduced = dataset.select_features(keep);
  if (reduced.cols() == 0) reduced = dataset;
  report.feature_names = reduced.feature_names;

  const auto split =
      features::split_dataset(reduced, config.train_fraction, config.seed);
  ml::StandardScaler scaler;
  const auto x_train = scaler.fit_transform(split.train.x);
  const auto x_test = scaler.transform(split.test.x);

  ml::LinearRegression linear;
  linear.fit(x_train, split.train.y);
  const auto lr_predictions = linear.predict(x_test);
  report.lr_mdape = ml::mdape(split.test.y, lr_predictions);
  report.lr_r2 = linear.r_squared(x_test, split.test.y);

  ml::GbtConfig gbt_config = config.gbt;
  gbt_config.seed = config.seed + 1;
  ml::GradientBoostedTrees boosted(gbt_config);
  boosted.fit(x_train, split.train.y);
  // Serve the held-out evaluation through the flattened batch engine.
  std::vector<double> xgb_predictions(x_test.rows());
  boosted.predict_batch(x_test, xgb_predictions);
  report.xgb_mdape = ml::mdape(split.test.y, xgb_predictions);
  report.xgb_importance = boosted.feature_importance();
  return report;
}

}  // namespace xfl::core
