#include "core/predictor.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "features/dataset.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xfl::core {

namespace {
/// Predictor-level observability: which model class serves each request
/// (dedicated edge model vs. global fallback) and whether the residual
/// interval came from real calibration data or the 1.0 defaults.
struct PredictorMetrics {
  obs::Counter& fits = obs::counter("predictor.fit.count");
  obs::Counter& edge_models = obs::counter("predictor.fit.edge_models");
  obs::Counter& calibrated = obs::counter("predictor.fit.calibrated");
  obs::Counter& uncalibrated = obs::counter("predictor.fit.uncalibrated");
  obs::Counter& edge_hits = obs::counter("predictor.predict.edge_hits");
  obs::Counter& global_fallbacks =
      obs::counter("predictor.predict.global_fallbacks");
  /// Batch predict wall time, fine log buckets: its quantiles feed the
  /// serve-path "predict" stage in the stats exposition.
  obs::Histogram& batch_latency = obs::histogram(
      "predictor.predict.batch_us", obs::quantile_latency_bounds_us());
  // Explain-path accounting, per group: which model class produced each
  // explanation and whether its interval came from real calibration data.
  obs::Counter& explain_rows = obs::counter("predictor.explain.rows");
  obs::Counter& explain_edge_hits =
      obs::counter("predictor.explain.edge_hits");
  obs::Counter& explain_global_fallbacks =
      obs::counter("predictor.explain.global_fallbacks");
  obs::Counter& explain_calibrated =
      obs::counter("predictor.explain.calibrated");
  obs::Counter& explain_uncalibrated =
      obs::counter("predictor.explain.uncalibrated");
  obs::Histogram& explain_latency = obs::histogram(
      "predictor.explain.batch_us", obs::quantile_latency_bounds_us());
};

PredictorMetrics& predictor_metrics() {
  static PredictorMetrics metrics;
  return metrics;
}

/// Bucket bounds for the per-feature |contribution| histograms (MB/s
/// magnitudes, log-spaced 0.001..10000).
std::span<const double> attribution_bounds() {
  static const std::vector<double> bounds =
      obs::log_bucket_bounds(1.0e-3, 1.0e4, 1.6);
  return bounds;
}
}  // namespace

TransferPredictor::TransferPredictor() : TransferPredictor(Options{}) {}

TransferPredictor::TransferPredictor(Options options)
    : options_(std::move(options)) {
  XFL_EXPECTS(options_.gbt.valid());
}

/// Fill a model's empirical residual-ratio quantiles from training data.
void TransferPredictor::calibrate_interval(Model& model, const ml::Matrix& x,
                                           const std::vector<double>& y) {
  // One pass through the flattened batch engine instead of a per-row walk
  // (serial: calibration runs inside fit(), which may already fan out).
  std::vector<double> predicted(x.rows());
  model.boosted->predict_batch(x, predicted);
  std::vector<double> ratios;
  ratios.reserve(y.size());
  for (std::size_t r = 0; r < x.rows(); ++r)
    ratios.push_back(y[r] / std::max(0.01, predicted[r]));
  if (ratios.size() >= 10) {
    model.ratio_p10 = percentile(ratios, 10.0);
    model.ratio_p90 = percentile(ratios, 90.0);
    predictor_metrics().calibrated.add(1);
  } else {
    predictor_metrics().uncalibrated.add(1);
  }
}

void TransferPredictor::fit(const logs::LogStore& log) {
  XFL_EXPECTS(!log.empty());
  XFL_SPAN("predictor.fit");
  edge_models_.clear();

  AnalysisContext context = analyze_log(log);
  capabilities_ = context.capabilities;

  features::DatasetOptions dataset_options;
  dataset_options.include_nflt = false;
  dataset_options.load_threshold = options_.load_threshold;

  // Per-edge models.
  std::vector<logs::EdgeKey> trainable;
  for (const auto& edge : context.log.edges_by_usage()) {
    if (context.log.edge_count(edge) < options_.min_edge_transfers) break;
    trainable.push_back(edge);
  }
  for (const auto& edge : trainable) {
    const auto dataset = features::build_edge_dataset(
        context.log, context.contention, edge, dataset_options);
    if (dataset.rows() < options_.min_edge_transfers) continue;
    Model model;
    model.feature_names = dataset.feature_names;
    const auto x = model.scaler.fit_transform(dataset.x);
    ml::GbtConfig gbt_config = options_.gbt;
    gbt_config.seed = options_.seed;
    model.boosted = std::make_unique<ml::GradientBoostedTrees>(gbt_config);
    model.boosted->fit(x, dataset.y);
    calibrate_interval(model, x, dataset.y);
    edge_models_.emplace(edge, std::move(model));
  }

  // Global fallback model over every edge in the log.
  const auto all_edges = context.log.edges_by_usage();
  const auto global_dataset = features::build_global_dataset(
      context.log, context.contention, all_edges, context.capabilities,
      dataset_options);
  global_model_.feature_names = global_dataset.feature_names;
  const auto x = global_model_.scaler.fit_transform(global_dataset.x);
  ml::GbtConfig gbt_config = options_.gbt;
  gbt_config.seed = options_.seed + 1;
  global_model_.boosted =
      std::make_unique<ml::GradientBoostedTrees>(gbt_config);
  global_model_.boosted->fit(x, global_dataset.y);
  calibrate_interval(global_model_, x, global_dataset.y);

  fitted_ = true;
  auto& metrics = predictor_metrics();
  metrics.fits.add(1);
  metrics.edge_models.add(edge_models_.size());
  XFL_LOG(info) << "predictor fit complete"
                << obs::kv("records", log.size())
                << obs::kv("edge_models", edge_models_.size())
                << obs::kv("global_rows", global_dataset.rows())
                << obs::kv("kernel", serving_kernel());
}

TransferPredictor TransferPredictor::clone() const {
  XFL_EXPECTS(fitted_);
  // The models hold move-only members (unique_ptr ensembles), so the
  // tested persistence round trip is the copy path; load() recompiles the
  // flat inference engines, so the clone serves immediately.
  std::stringstream buffer;
  buffer.precision(17);
  save(buffer);
  return load(buffer);
}

void TransferPredictor::refit_edge(const logs::EdgeKey& edge,
                                   std::span<const EdgeSample> samples,
                                   std::span<const std::uint32_t> weights,
                                   const ml::GbtConfig& gbt) {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(samples.size() >= 2);
  XFL_EXPECTS(weights.empty() || weights.size() == samples.size());
  XFL_EXPECTS(gbt.valid());
  XFL_SPAN("predictor.refit_edge");

  Model model;
  // Per-edge feature layout: kFeatureNames minus Nflt (prediction
  // features only), the order feature_vector() emits.
  for (const char* name : features::kFeatureNames)
    if (std::string_view(name) != "Nflt") model.feature_names.emplace_back(name);

  ml::Matrix raw(samples.size(), model.feature_names.size());
  std::vector<double> y;
  y.reserve(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const EdgeSample& sample = samples[r];
    XFL_EXPECTS(std::isfinite(sample.observed_mbps) &&
                sample.observed_mbps > 0.0);
    const auto row =
        feature_vector(sample.transfer, sample.load, /*with_capabilities=*/false);
    XFL_EXPECTS(row.size() == model.feature_names.size());
    for (std::size_t c = 0; c < row.size(); ++c) raw.at(r, c) = row[c];
    y.push_back(sample.observed_mbps);
  }

  const auto x = model.scaler.fit_transform(raw);
  model.boosted = std::make_unique<ml::GradientBoostedTrees>(gbt);
  model.boosted->fit(x, y, weights);
  calibrate_interval(model, x, y);
  edge_models_[edge] = std::move(model);

  XFL_LOG(info) << "predictor edge refit"
                << obs::kv("src", edge.src) << obs::kv("dst", edge.dst)
                << obs::kv("rows", samples.size())
                << obs::kv("weighted", weights.empty() ? 0 : 1)
                << obs::kv("trees", gbt.trees);
}

const char* TransferPredictor::serving_kernel() const {
  XFL_EXPECTS(fitted_);
  return ml::kernel_name(global_model_.boosted->flat().effective_kernel());
}

bool TransferPredictor::has_edge_model(const logs::EdgeKey& edge) const {
  return edge_models_.contains(edge);
}

std::vector<double> TransferPredictor::feature_vector(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& load, bool with_capabilities) const {
  // Mirrors features::kFeatureNames order with Nflt removed (prediction
  // features only; Fig. 9 order): Ksout Kdin C P Ssout Ssin Sdout Sdin
  // Ksin Kdout Nd Nb Gsrc Gdst Nf [ROmax_src RImax_dst].
  std::vector<double> row = {
      to_mbps(load.k_sout),
      to_mbps(load.k_din),
      static_cast<double>(transfer.concurrency),
      static_cast<double>(transfer.parallelism),
      load.s_sout,
      load.s_sin,
      load.s_dout,
      load.s_din,
      to_mbps(load.k_sin),
      to_mbps(load.k_dout),
      static_cast<double>(transfer.dirs),
      transfer.bytes,
      load.g_src,
      load.g_dst,
      static_cast<double>(transfer.files),
  };
  if (with_capabilities) {
    const auto* src_capability = capability(transfer.src);
    const auto* dst_capability = capability(transfer.dst);
    row.push_back(src_capability ? to_mbps(src_capability->ro_max_Bps) : 0.0);
    row.push_back(dst_capability ? to_mbps(dst_capability->ri_max_Bps) : 0.0);
  }
  return row;
}

const TransferPredictor::Model& TransferPredictor::model_for(
    const logs::EdgeKey& edge) const {
  const auto it = edge_models_.find(edge);
  return it != edge_models_.end() ? it->second : global_model_;
}

double TransferPredictor::predict_rate_mbps(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& expected_load) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(transfer.bytes >= 0.0 && transfer.files >= 1);
  XFL_SPAN("predictor.predict");
  const logs::EdgeKey edge{transfer.src, transfer.dst};
  const bool dedicated = has_edge_model(edge);
  auto& metrics = predictor_metrics();
  (dedicated ? metrics.edge_hits : metrics.global_fallbacks).add(1);
  const Model& model = model_for(edge);
  auto row = feature_vector(transfer, expected_load, !dedicated);

  // Standardise with the model's training statistics.
  XFL_EXPECTS(row.size() == model.scaler.means().size());
  for (std::size_t c = 0; c < row.size(); ++c)
    row[c] = (row[c] - model.scaler.means()[c]) / model.scaler.sigmas()[c];
  const double rate = model.boosted->predict(row);
  return std::max(rate, 0.01);  // A rate prediction is never non-positive.
}

std::vector<TransferPredictor::ModelRows> TransferPredictor::group_by_model(
    std::span<const PlannedTransfer> transfers,
    std::span<const features::ContentionFeatures> expected_loads) const {
  XFL_EXPECTS(fitted_);
  XFL_EXPECTS(expected_loads.empty() ||
              expected_loads.size() == transfers.size());
  static const features::ContentionFeatures kIdle{};
  // Grouping only batches rows that share a model — every row is
  // standardised with its own model's moments and walked independently,
  // so the answers are bit-identical to per-transfer calls in any batch
  // composition.
  std::map<const Model*, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    XFL_EXPECTS(transfers[i].bytes >= 0.0 && transfers[i].files >= 1);
    groups[&model_for({transfers[i].src, transfers[i].dst})].push_back(i);
  }
  std::vector<ModelRows> out;
  out.reserve(groups.size());
  for (auto& [model, indices] : groups) {
    ModelRows& group = out.emplace_back();
    group.model = model;
    group.dedicated = model != &global_model_;
    const auto& means = model->scaler.means();
    const auto& sigmas = model->scaler.sigmas();
    group.x = ml::Matrix(indices.size(), means.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const std::size_t i = indices[k];
      const auto row = feature_vector(
          transfers[i], expected_loads.empty() ? kIdle : expected_loads[i],
          !group.dedicated);
      XFL_EXPECTS(row.size() == means.size());
      for (std::size_t c = 0; c < row.size(); ++c)
        group.x.at(k, c) = (row[c] - means[c]) / sigmas[c];
    }
    group.rows = std::move(indices);
  }
  return out;
}

std::vector<double> TransferPredictor::predict_rates_mbps(
    std::span<const PlannedTransfer> transfers,
    std::span<const features::ContentionFeatures> expected_loads) const {
  XFL_SPAN("predictor.predict_batch");
  const std::uint64_t start_us = obs::monotonic_us();
  std::vector<double> rates(transfers.size());
  const std::vector<ModelRows> groups =
      group_by_model(transfers, expected_loads);
  if (transfers.empty()) return rates;
  // Each group runs through its model's flattened batch engine in one shot.
  auto& metrics = predictor_metrics();
  for (const ModelRows& group : groups) {
    (group.dedicated ? metrics.edge_hits : metrics.global_fallbacks)
        .add(group.rows.size());
    std::vector<double> predicted(group.rows.size());
    group.model->boosted->predict_batch(group.x, predicted);
    for (std::size_t k = 0; k < group.rows.size(); ++k)
      rates[group.rows[k]] = std::max(predicted[k], 0.01);
  }
  metrics.batch_latency.record(
      static_cast<double>(obs::monotonic_us() - start_us));
  return rates;
}

std::vector<RateExplanation> TransferPredictor::explain_rates_mbps(
    std::span<const PlannedTransfer> transfers,
    std::span<const features::ContentionFeatures> expected_loads) const {
  XFL_SPAN("predictor.explain_batch");
  const std::uint64_t start_us = obs::monotonic_us();
  std::vector<RateExplanation> out(transfers.size());
  // The predict path's grouping, so the explained rate for a transfer is
  // bit-identical to the rate the predict path serves for it.
  const std::vector<ModelRows> groups =
      group_by_model(transfers, expected_loads);
  if (transfers.empty()) return out;
  auto& metrics = predictor_metrics();
  for (const ModelRows& group : groups) {
    const Model* model = group.model;
    const auto& indices = group.rows;
    (group.dedicated ? metrics.explain_edge_hits
                     : metrics.explain_global_fallbacks)
        .add(indices.size());
    const bool calibrated =
        model->ratio_p10 != 1.0 || model->ratio_p90 != 1.0;
    (calibrated ? metrics.explain_calibrated : metrics.explain_uncalibrated)
        .add(indices.size());
    const std::size_t cols = group.x.cols();
    std::vector<double> predicted(indices.size());
    std::vector<double> bias(indices.size());
    std::vector<double> contributions(indices.size() * cols);
    model->boosted->explain_batch(group.x, predicted, bias, contributions);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      RateExplanation& explanation = out[indices[k]];
      explanation.raw_mbps = predicted[k];
      explanation.bias_mbps = bias[k];
      // Identical clamp and band arithmetic as the predict path.
      explanation.rate_mbps = std::max(predicted[k], 0.01);
      explanation.low_mbps =
          std::max(0.01, explanation.rate_mbps * model->ratio_p10);
      explanation.high_mbps = std::max(
          explanation.low_mbps, explanation.rate_mbps * model->ratio_p90);
      explanation.edge_model = group.dedicated;
      explanation.feature_names = model->feature_names;
      explanation.contributions.assign(
          contributions.begin() + static_cast<std::ptrdiff_t>(k * cols),
          contributions.begin() + static_cast<std::ptrdiff_t>((k + 1) * cols));
    }
    // Rolling per-feature attribution magnitudes: one registry lookup per
    // feature per group (explain traffic is low-rate by design), then
    // lock-free records.
    for (std::size_t c = 0; c < cols && c < model->feature_names.size();
         ++c) {
      auto& histogram = obs::histogram(
          "predictor.attribution." + model->feature_names[c],
          attribution_bounds());
      for (std::size_t k = 0; k < indices.size(); ++k)
        histogram.record(std::abs(contributions[k * cols + c]));
    }
  }
  metrics.explain_rows.add(transfers.size());
  metrics.explain_latency.record(
      static_cast<double>(obs::monotonic_us() - start_us));
  return out;
}

RateInterval TransferPredictor::predict_rate_interval(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& expected_load) const {
  const double expected = predict_rate_mbps(transfer, expected_load);
  const Model& model = model_for({transfer.src, transfer.dst});
  RateInterval interval;
  interval.expected_mbps = expected;
  interval.low_mbps = std::max(0.01, expected * model.ratio_p10);
  interval.high_mbps = std::max(interval.low_mbps, expected * model.ratio_p90);
  return interval;
}

double TransferPredictor::estimate_duration_s(
    const PlannedTransfer& transfer,
    const features::ContentionFeatures& expected_load) const {
  const double rate_mbps = predict_rate_mbps(transfer, expected_load);
  return transfer.bytes / mbps(rate_mbps);
}

std::vector<std::pair<std::string, double>> TransferPredictor::explain(
    const logs::EdgeKey& edge) const {
  XFL_EXPECTS(fitted_);
  const Model& model = model_for(edge);
  const auto importance = model.boosted->feature_importance();
  std::vector<std::pair<std::string, double>> pairs;
  pairs.reserve(importance.size());
  for (std::size_t c = 0; c < importance.size(); ++c)
    pairs.emplace_back(model.feature_names[c], importance[c]);
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return pairs;
}

namespace {
constexpr const char* kPredictorMagic = "xfl-predictor-v1";

void save_model(std::ostream& out, const char* label,
                const TransferPredictor::PersistedModel& model) {
  out << label << '\n';
  out << model.feature_names.size();
  for (const auto& name : model.feature_names) out << ' ' << name;
  out << '\n';
  out << model.means.size();
  for (const double m : model.means) out << ' ' << m;
  for (const double s : model.sigmas) out << ' ' << s;
  out << '\n';
  out << model.ratio_p10 << ' ' << model.ratio_p90 << '\n';
}

/// Sanity cap shared by every count field: a corrupted count must throw,
/// not drive a multi-gigabyte resize.
constexpr std::size_t kMaxPredictorEntries = 1u << 20;

TransferPredictor::PersistedModel load_model(std::istream& in,
                                             const std::string& label) {
  auto fail = [&label](const std::string& what) -> void {
    throw std::runtime_error("TransferPredictor::load (" + label +
                             "): " + what);
  };
  std::string seen;
  in >> seen;
  if (seen != label) fail("expected label, saw '" + seen + "'");
  TransferPredictor::PersistedModel model;
  std::size_t name_count = 0;
  in >> name_count;
  if (!in || name_count == 0 || name_count > kMaxPredictorEntries)
    fail("implausible feature-name count");
  model.feature_names.resize(name_count);
  for (auto& name : model.feature_names) in >> name;
  std::size_t moment_count = 0;
  in >> moment_count;
  if (!in) fail("truncated feature-name block");
  // Exactly one (mean, sigma) pair per feature; a mismatch means fields
  // were dropped or swapped upstream.
  if (moment_count != name_count)
    fail("scaler moment count does not match feature count");
  model.means.resize(moment_count);
  model.sigmas.resize(moment_count);
  for (auto& m : model.means) in >> m;
  for (auto& s : model.sigmas) in >> s;
  in >> model.ratio_p10 >> model.ratio_p90;
  if (!in) fail("truncated scaler block");
  for (const double s : model.sigmas)
    if (!(s > 0.0)) fail("non-positive scaler sigma");
  return model;
}
}  // namespace

void TransferPredictor::save(std::ostream& out) const {
  XFL_EXPECTS(fitted_);
  out.precision(17);
  out << kPredictorMagic << '\n';
  out << options_.min_edge_transfers << ' ' << options_.load_threshold << '\n';

  out << capabilities_.size() << '\n';
  for (const auto& [endpoint, capability] : capabilities_)
    out << endpoint << ' ' << capability.dr_max_Bps << ' '
        << capability.dw_max_Bps << ' ' << capability.ro_max_Bps << ' '
        << capability.ri_max_Bps << '\n';

  out << edge_models_.size() << '\n';
  for (const auto& [edge, model] : edge_models_) {
    out << edge.src << ' ' << edge.dst << '\n';
    PersistedModel persisted{model.feature_names, model.scaler.means(),
                             model.scaler.sigmas(), model.ratio_p10,
                             model.ratio_p90};
    save_model(out, "edge-model", persisted);
    model.boosted->save(out);
  }
  PersistedModel persisted{global_model_.feature_names,
                           global_model_.scaler.means(),
                           global_model_.scaler.sigmas(),
                           global_model_.ratio_p10, global_model_.ratio_p90};
  save_model(out, "global-model", persisted);
  global_model_.boosted->save(out);
}

TransferPredictor TransferPredictor::load(std::istream& in) {
  std::string magic;
  in >> magic;
  if (magic != kPredictorMagic)
    throw std::runtime_error("TransferPredictor::load: bad magic '" + magic +
                             "'");
  TransferPredictor predictor;
  in >> predictor.options_.min_edge_transfers >>
      predictor.options_.load_threshold;

  std::size_t capability_count = 0;
  in >> capability_count;
  if (!in || capability_count > kMaxPredictorEntries)
    throw std::runtime_error(
        "TransferPredictor::load: implausible capability count");
  for (std::size_t i = 0; i < capability_count; ++i) {
    endpoint::EndpointId endpoint = 0;
    features::EndpointCapability capability;
    in >> endpoint >> capability.dr_max_Bps >> capability.dw_max_Bps >>
        capability.ro_max_Bps >> capability.ri_max_Bps;
    predictor.capabilities_[endpoint] = capability;
  }

  std::size_t edge_count = 0;
  in >> edge_count;
  if (!in || edge_count > kMaxPredictorEntries)
    throw std::runtime_error(
        "TransferPredictor::load: implausible edge-model count");
  for (std::size_t i = 0; i < edge_count; ++i) {
    logs::EdgeKey edge;
    in >> edge.src >> edge.dst;
    const auto persisted = load_model(in, "edge-model");
    Model model;
    model.feature_names = persisted.feature_names;
    model.scaler =
        ml::StandardScaler::from_moments(persisted.means, persisted.sigmas);
    model.ratio_p10 = persisted.ratio_p10;
    model.ratio_p90 = persisted.ratio_p90;
    model.boosted = std::make_unique<ml::GradientBoostedTrees>(
        ml::GradientBoostedTrees::load(in));
    predictor.edge_models_.emplace(edge, std::move(model));
  }
  const auto persisted = load_model(in, "global-model");
  predictor.global_model_.feature_names = persisted.feature_names;
  predictor.global_model_.scaler =
      ml::StandardScaler::from_moments(persisted.means, persisted.sigmas);
  predictor.global_model_.ratio_p10 = persisted.ratio_p10;
  predictor.global_model_.ratio_p90 = persisted.ratio_p90;
  predictor.global_model_.boosted = std::make_unique<ml::GradientBoostedTrees>(
      ml::GradientBoostedTrees::load(in));
  if (!in)
    throw std::runtime_error("TransferPredictor::load: truncated model");
  predictor.fitted_ = true;
  return predictor;
}

namespace {
/// fsync the file at `path`; returns false on open or sync failure.
bool sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
}  // namespace

void TransferPredictor::save_file(const std::string& path) const {
  XFL_EXPECTS(fitted_);
  // Write-to-temp + fsync + atomic rename + parent-directory fsync:
  // readers see the old complete file or the new complete file, a failed
  // save leaves any existing model untouched, and a crash after return
  // cannot surface a zero-length temp promoted over a good model (the
  // rename must not be reordered ahead of the data reaching disk). The
  // pid suffix keeps concurrent writers from clobbering each other's
  // temp files.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw std::runtime_error("TransferPredictor::save_file: cannot write " +
                               tmp);
    save(out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error(
          "TransferPredictor::save_file: write failed for " + tmp);
    }
  }
  if (!sync_file(tmp)) {
    std::remove(tmp.c_str());
    throw std::runtime_error("TransferPredictor::save_file: cannot fsync " +
                             tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("TransferPredictor::save_file: cannot rename " +
                             tmp + " to " + path);
  }
  // Durability of the rename itself: sync the directory entry. "." covers
  // bare filenames saved into the working directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  if (!sync_file(dir))
    throw std::runtime_error(
        "TransferPredictor::save_file: cannot fsync directory " + dir);
}

TransferPredictor TransferPredictor::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("TransferPredictor::load_file: cannot open " +
                             path);
  return load(in);
}

const features::EndpointCapability* TransferPredictor::capability(
    endpoint::EndpointId endpoint) const {
  const auto it = capabilities_.find(endpoint);
  return it == capabilities_.end() ? nullptr : &it->second;
}

}  // namespace xfl::core
