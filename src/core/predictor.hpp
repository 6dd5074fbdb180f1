// Public prediction API — the downstream-facing deliverable the paper
// motivates: "Our predictions can be used for distributed workflow
// scheduling and optimization."
//
// TransferPredictor learns from a historical log: one gradient-boosting
// model per sufficiently used edge, plus the pooled global model of §5.4
// (with ROmax/RImax endpoint-capability features) as a fallback for edges
// with little or no history. Callers supply the planned transfer and the
// competing load they expect during it (e.g. from currently running
// transfers) and receive a rate estimate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ml/gbt.hpp"
#include "ml/scaler.hpp"

namespace xfl::core {

/// A transfer about to be submitted.
struct PlannedTransfer {
  endpoint::EndpointId src = 0;
  endpoint::EndpointId dst = 0;
  double bytes = 0.0;
  std::uint64_t files = 1;
  std::uint64_t dirs = 1;
  std::uint32_t concurrency = 4;
  std::uint32_t parallelism = 4;
};

/// One joined prediction/feedback observation from the serve path — the
/// raw material of a live refit: the planned transfer, the competing
/// load the caller reported, and the observed average rate. The retrain
/// subsystem (src/retrain) replays journalled EdgeSamples through
/// refit_edge() to rebuild a per-edge model from serving ground truth.
struct EdgeSample {
  PlannedTransfer transfer;
  features::ContentionFeatures load;
  double observed_mbps = 0.0;
};

/// A rate prediction with an empirical uncertainty band (the 10th and
/// 90th percentiles of the training-residual ratio applied to the point
/// estimate). Schedulers can plan against `low_mbps` for deadlines.
struct RateInterval {
  double low_mbps = 0.0;
  double expected_mbps = 0.0;
  double high_mbps = 0.0;
};

/// One explained prediction: the served rate plus the Saabas
/// decomposition of where it came from. Exactness contract:
/// `contributions` summed in ascending feature order plus `bias_mbps`
/// (added last) equals `raw_mbps` bit-exactly, and `rate_mbps` ==
/// max(raw_mbps, 0.01) is bit-identical to what predict_rates_mbps
/// serves for the same transfer. Contributions are in MB/s — each is the
/// summed shift in subtree expectation its feature's splits caused along
/// every tree's decision path — and `bias_mbps` is the ensemble's base
/// score plus the root expectations (what an average training row would
/// get), absorbing the few-ulp summation residual.
struct RateExplanation {
  double rate_mbps = 0.0;   ///< Served rate (clamped at 0.01 MB/s).
  double raw_mbps = 0.0;    ///< Unclamped model output = bias + sum.
  double bias_mbps = 0.0;   ///< Base + root expectations (+ residual).
  double low_mbps = 0.0;    ///< rate * ratio_p10 band, as in RateInterval.
  double high_mbps = 0.0;
  bool edge_model = false;  ///< Dedicated edge model vs. global fallback.
  /// Parallel arrays, in the serving model's feature order (15 per-edge
  /// features, +ROmax_src/RImax_dst on the global fallback).
  std::vector<std::string> feature_names;
  std::vector<double> contributions;
};

/// Historical-log-trained transfer rate predictor.
class TransferPredictor {
 public:
  struct Options {
    /// Per-edge models are trained for edges with at least this many
    /// transfers; others fall back to the global model.
    std::size_t min_edge_transfers = 100;
    /// Optional unknown-load filter applied to training data (0 = off).
    double load_threshold = 0.0;
    ml::GbtConfig gbt;
    std::uint64_t seed = 1234;
  };

  /// Plain-data view of one model's non-GBT state (serialisation helper).
  struct PersistedModel {
    std::vector<std::string> feature_names;
    std::vector<double> means;
    std::vector<double> sigmas;
    double ratio_p10 = 1.0;
    double ratio_p90 = 1.0;
  };

  TransferPredictor();
  explicit TransferPredictor(Options options);

  /// Train from a historical log. May be called again to refit.
  void fit(const logs::LogStore& log);

  /// Deep copy of a fitted predictor via a save()/load() round trip (the
  /// members are move-only, so persistence is the copy path). Used by the
  /// retrain worker to build a candidate off the hot path without
  /// touching the serving instance. Training-only options that do not
  /// persist (gbt config, seed) reset to defaults in the copy — callers
  /// that refit the clone pass their own GbtConfig. Requires fit().
  TransferPredictor clone() const;

  /// Refit (or create) the dedicated model for `edge` from raw serving
  /// samples. Builds the 15-column per-edge feature matrix, standardises
  /// it with freshly fitted moments, trains a GBT under `gbt` with the
  /// optional integer sample `weights` (the retrain worker's quantised
  /// recency decay; empty = unweighted), and recalibrates the residual
  /// interval. The global model and other edges are untouched. Requires
  /// fit() (or load()), samples.size() >= 2, finite observed rates > 0,
  /// and weights empty or parallel to samples.
  void refit_edge(const logs::EdgeKey& edge, std::span<const EdgeSample> samples,
                  std::span<const std::uint32_t> weights, const ml::GbtConfig& gbt);

  bool fitted() const { return fitted_; }

  /// True when a dedicated model exists for the edge.
  bool has_edge_model(const logs::EdgeKey& edge) const;

  /// Predict the average transfer rate in MB/s. `expected_load` carries the
  /// competing-load features the caller anticipates (default: idle).
  /// Requires fit() first.
  double predict_rate_mbps(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load = {}) const;

  /// Batch serving path: predict rates for many planned transfers at once.
  /// Transfers are grouped per serving model (edge or global fallback),
  /// standardised into one matrix per group, and pushed through the
  /// flattened batch-inference engine — bit-identical to calling
  /// predict_rate_mbps per transfer, in any grouping. `expected_loads` is
  /// either empty (all idle) or parallel to `transfers`. Requires fit().
  std::vector<double> predict_rates_mbps(
      std::span<const PlannedTransfer> transfers,
      std::span<const features::ContentionFeatures> expected_loads = {})
      const;

  /// Explained batch serving path: the same per-model grouping and
  /// standardisation as predict_rates_mbps, routed through the flat
  /// engine's Saabas attribution kernel. Each result's rate_mbps is
  /// bit-identical to the rate predict_rates_mbps would serve, and its
  /// contributions + bias reconstruct raw_mbps bit-exactly (see
  /// RateExplanation). Per-feature |contribution| values are recorded
  /// into `predictor.attribution.<feature>` histograms. Requires fit().
  std::vector<RateExplanation> explain_rates_mbps(
      std::span<const PlannedTransfer> transfers,
      std::span<const features::ContentionFeatures> expected_loads = {})
      const;

  /// Point prediction plus an empirical 10th-90th percentile band.
  /// Requires fit().
  RateInterval predict_rate_interval(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load = {}) const;

  /// Predicted wall-clock duration in seconds (bytes / predicted rate).
  double estimate_duration_s(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load = {}) const;

  /// Name of the batch-inference kernel the serving path would run right
  /// now ("scalar" / "quantized"): the process-wide dispatch
  /// (XFL_KERNEL / --kernel / CPU detection) resolved against the global
  /// model's compiled ensemble. Surfaced in the serve startup log and the
  /// `stats` admin reply. Requires fit() (or load()).
  const char* serving_kernel() const;

  /// Feature importances of the model serving this edge (name, weight),
  /// most important first. Requires fit().
  std::vector<std::pair<std::string, double>> explain(
      const logs::EdgeKey& edge) const;

  /// Historical capability estimate for an endpoint, if it has history.
  const features::EndpointCapability* capability(
      endpoint::EndpointId endpoint) const;

  /// Persist the fitted predictor (per-edge + global models, scalers,
  /// capabilities) to a line-oriented text stream; load() restores a
  /// predictor that answers identically. Requires fit().
  void save(std::ostream& out) const;
  static TransferPredictor load(std::istream& in);

  /// File-based persistence with crash-safe replacement: save_file writes
  /// to `path + ".tmp.<pid>"`, fsyncs the temp file, atomically
  /// rename(2)s it into place, then fsyncs the parent directory — so a
  /// concurrent reader (e.g. the serve hot-reload watcher) sees either
  /// the old complete file or the new complete file, never a torn write,
  /// and a power loss right after return cannot roll back to a missing or
  /// zero-length model. Both throw std::runtime_error on I/O failure.
  void save_file(const std::string& path) const;
  static TransferPredictor load_file(const std::string& path);

 private:
  /// One serving model (per-edge or global). Its GradientBoostedTrees
  /// carries the compiled FlatEnsemble that answers queries — the
  /// per-edge compiled-model cache. The cache is derived state rebuilt at
  /// the end of every GBT fit() and load(), so a (re)fit or load of the
  /// predictor can never serve a stale compiled model.
  struct Model {
    ml::StandardScaler scaler;
    std::unique_ptr<ml::GradientBoostedTrees> boosted;
    std::vector<std::string> feature_names;
    /// Empirical training-residual ratio quantiles (actual / predicted).
    double ratio_p10 = 1.0;
    double ratio_p90 = 1.0;
  };

  static void calibrate_interval(Model& model, const ml::Matrix& x,
                                 const std::vector<double>& y);
  std::vector<double> feature_vector(
      const PlannedTransfer& transfer,
      const features::ContentionFeatures& expected_load,
      bool with_capabilities) const;
  const Model& model_for(const logs::EdgeKey& edge) const;

  /// The rows of one batch request that share a serving model,
  /// standardised with that model's training moments.
  struct ModelRows {
    const Model* model = nullptr;
    bool dedicated = false;         ///< Per-edge model, not the global one.
    std::vector<std::size_t> rows;  ///< Indices into the request.
    ml::Matrix x;                   ///< Standardised features, per row.
  };
  /// The batch grouping predict_rates_mbps and explain_rates_mbps share.
  std::vector<ModelRows> group_by_model(
      std::span<const PlannedTransfer> transfers,
      std::span<const features::ContentionFeatures> expected_loads) const;

  Options options_;
  bool fitted_ = false;
  std::map<logs::EdgeKey, Model> edge_models_;
  Model global_model_;
  std::map<endpoint::EndpointId, features::EndpointCapability> capabilities_;
};

}  // namespace xfl::core
