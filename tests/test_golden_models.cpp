// Golden round-trip suite: committed fixture models (tests/data, regenerated
// only deliberately via tools/make_golden_fixtures) must keep loading, must
// re-save byte-identically, and must reproduce their committed predictions.
// Any accidental serialization-format or inference change fails here first.
// Plus load-hardening: truncated prefixes and field-swapped mutations of the
// golden files must throw, never crash or mis-load.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <algorithm>
#include <cmath>

#include "common/csv.hpp"
#include "core/predictor.hpp"
#include "gbt_nodewalk_oracle.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"

namespace xfl {
namespace {

std::string data_path(const std::string& name) {
  return std::string(XFL_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every proper prefix ending at these cut points must throw, not crash,
/// hang, or quietly yield a model.
std::vector<std::size_t> cut_points(std::size_t size) {
  return {32, size / 4, size / 2, 3 * size / 4, size - 10};
}

// --- GradientBoostedTrees golden fixture ------------------------------

TEST(GoldenGbt, ResavesByteIdentical) {
  const std::string text = slurp(data_path("golden_gbt.txt"));
  std::istringstream in(text);
  const auto model = ml::GradientBoostedTrees::load(in);
  ASSERT_TRUE(model.fitted());
  std::ostringstream out;
  model.save(out);
  EXPECT_EQ(out.str(), text);
}

TEST(GoldenGbt, PredictionsMatchCommitted) {
  std::istringstream in(slurp(data_path("golden_gbt.txt")));
  const auto model = ml::GradientBoostedTrees::load(in);

  const auto rows = read_csv_file(data_path("golden_gbt_predictions.csv"));
  ASSERT_GT(rows.size(), 1u);
  ml::Matrix x;
  std::vector<double> expected;
  for (std::size_t r = 1; r < rows.size(); ++r) {  // Row 0 is the header.
    ASSERT_EQ(rows[r].size(), 7u) << "fixture row " << r;
    std::vector<double> features(6);
    for (std::size_t c = 0; c < 6; ++c) features[c] = std::stod(rows[r][c]);
    x.push_row(features);
    expected.push_back(std::stod(rows[r][6]));
  }

  // Committed values were written with %.17g, so they round-trip exactly:
  // the loaded model must reproduce them to the last bit, per row and
  // through the batch engine alike.
  std::vector<double> batch(x.rows());
  model.predict_batch(x, batch);
  const ml::oracle::NodeWalk walk(model);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(model.predict(x.row(r)), expected[r]) << "row " << r;
    EXPECT_EQ(walk.predict(x.row(r)), expected[r]) << "row " << r;
    EXPECT_EQ(batch[r], expected[r]) << "row " << r;
  }
}

/// Median absolute percentage error of `got` against `want` (both > 0 in
/// the fixtures; guard anyway so a zero fixture fails loudly, not by /0).
double mdape_pct(const std::vector<double>& got,
                 const std::vector<double>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::vector<double> ape;
  ape.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NE(want[i], 0.0) << "degenerate fixture row " << i;
    ape.push_back(std::fabs(got[i] - want[i]) / std::fabs(want[i]) * 100.0);
  }
  std::sort(ape.begin(), ape.end());
  const std::size_t n = ape.size();
  return n % 2 == 1 ? ape[n / 2] : 0.5 * (ape[n / 2 - 1] + ape[n / 2]);
}

// Kernel-family accuracy sweep on the committed fixture: the quantized
// kernel must land within 0.1% absolute MdAPE of the exact scalar kernel.
// The two are in fact bit-identical (the quantized form is lossless), so
// the per-row assertion is EXPECT_EQ and the MdAPE gap is exactly zero —
// the 0.1% ceiling is the documented contract this test would still
// enforce if a future kernel traded bits for speed.
TEST(GoldenGbt, KernelFamilyMatchesCommittedPredictions) {
  std::istringstream in(slurp(data_path("golden_gbt.txt")));
  const auto model = ml::GradientBoostedTrees::load(in);

  const auto rows = read_csv_file(data_path("golden_gbt_predictions.csv"));
  ASSERT_GT(rows.size(), 1u);
  ml::Matrix x;
  std::vector<double> expected;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    std::vector<double> features(6);
    for (std::size_t c = 0; c < 6; ++c) features[c] = std::stod(rows[r][c]);
    x.push_row(features);
    expected.push_back(std::stod(rows[r][6]));
  }

  const ml::FlatEnsemble& flat = model.flat();
  ASSERT_TRUE(flat.quantized_supported()) << flat.quantize_reject_reason();
  std::vector<double> exact(x.rows());
  flat.predict_batch(x, exact, nullptr, ml::Kernel::kScalar);
  const double exact_mdape = mdape_pct(exact, expected);
  EXPECT_EQ(exact_mdape, 0.0);  // %.17g fixtures round-trip exactly.

  ASSERT_EQ(flat.effective_kernel(ml::Kernel::kQuantized),
            ml::Kernel::kQuantized);
  std::vector<double> got(x.rows());
  flat.predict_batch(x, got, nullptr, ml::Kernel::kQuantized);
  EXPECT_LE(std::fabs(mdape_pct(got, expected) - exact_mdape), 0.1);
  for (std::size_t r = 0; r < x.rows(); ++r)
    EXPECT_EQ(got[r], exact[r]) << "quantized row " << r;
}

TEST(GoldenGbt, TruncatedPrefixesThrow) {
  const std::string text = slurp(data_path("golden_gbt.txt"));
  ASSERT_GT(text.size(), 64u);
  for (const std::size_t cut : cut_points(text.size())) {
    std::istringstream in(text.substr(0, cut));
    EXPECT_THROW(ml::GradientBoostedTrees::load(in), std::runtime_error)
        << "prefix of " << cut << " bytes";
  }
}

TEST(GoldenGbt, FieldSwappedMagicRejected) {
  std::string text = slurp(data_path("golden_gbt.txt"));
  text.replace(0, 3, "lfx");  // xfl-gbt-v1 -> lfx-gbt-v1.
  std::istringstream in(text);
  EXPECT_THROW(ml::GradientBoostedTrees::load(in), std::runtime_error);
}

// --- TransferPredictor golden fixture ---------------------------------

TEST(GoldenPredictor, ResavesByteIdentical) {
  const std::string text = slurp(data_path("golden_predictor.txt"));
  std::istringstream in(text);
  const auto predictor = core::TransferPredictor::load(in);
  ASSERT_TRUE(predictor.fitted());
  std::ostringstream out;
  predictor.save(out);
  EXPECT_EQ(out.str(), text);
}

TEST(GoldenPredictor, PredictionsMatchCommitted) {
  std::istringstream in(slurp(data_path("golden_predictor.txt")));
  const auto predictor = core::TransferPredictor::load(in);

  const auto rows =
      read_csv_file(data_path("golden_predictor_predictions.csv"));
  ASSERT_GT(rows.size(), 1u);
  std::vector<core::PlannedTransfer> planned;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    ASSERT_EQ(rows[r].size(), 10u) << "fixture row " << r;
    core::PlannedTransfer transfer;
    transfer.src = static_cast<endpoint::EndpointId>(std::stoul(rows[r][0]));
    transfer.dst = static_cast<endpoint::EndpointId>(std::stoul(rows[r][1]));
    transfer.bytes = std::stod(rows[r][2]);
    transfer.files = std::stoull(rows[r][3]);
    transfer.dirs = std::stoull(rows[r][4]);
    transfer.concurrency =
        static_cast<std::uint32_t>(std::stoul(rows[r][5]));
    transfer.parallelism =
        static_cast<std::uint32_t>(std::stoul(rows[r][6]));
    planned.push_back(transfer);

    const auto interval = predictor.predict_rate_interval(transfer);
    EXPECT_EQ(interval.expected_mbps, std::stod(rows[r][7])) << "row " << r;
    EXPECT_EQ(interval.low_mbps, std::stod(rows[r][8])) << "row " << r;
    EXPECT_EQ(interval.high_mbps, std::stod(rows[r][9])) << "row " << r;
  }

  // The grouped batch path answers exactly like the per-call path.
  const auto batch = predictor.predict_rates_mbps(planned);
  ASSERT_EQ(batch.size(), planned.size());
  for (std::size_t i = 0; i < planned.size(); ++i)
    EXPECT_EQ(batch[i], predictor.predict_rate_mbps(planned[i])) << "row " << i;
}

TEST(GoldenPredictor, TruncatedPrefixesThrow) {
  const std::string text = slurp(data_path("golden_predictor.txt"));
  ASSERT_GT(text.size(), 64u);
  for (const std::size_t cut : cut_points(text.size())) {
    std::istringstream in(text.substr(0, cut));
    EXPECT_THROW(core::TransferPredictor::load(in), std::runtime_error)
        << "prefix of " << cut << " bytes";
  }
}

TEST(GoldenPredictor, FieldSwappedLabelRejected) {
  std::string text = slurp(data_path("golden_predictor.txt"));
  const auto at = text.find("edge-model");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "edgy-model");  // Same length, wrong label.
  std::istringstream in(text);
  EXPECT_THROW(core::TransferPredictor::load(in), std::runtime_error);
}

TEST(GoldenPredictor, ShrunkFeatureCountRejected) {
  // Decrement a feature-name count so the moment block no longer lines up
  // — the count/moment cross-check must catch the swap.
  std::string text = slurp(data_path("golden_predictor.txt"));
  const auto label = text.find("edge-model\n");
  ASSERT_NE(label, std::string::npos);
  const auto count_at = label + std::string("edge-model\n").size();
  ASSERT_EQ(text.substr(count_at, 3), "15 ");
  text.replace(count_at, 2, "14");
  std::istringstream in(text);
  EXPECT_THROW(core::TransferPredictor::load(in), std::runtime_error);
}

TEST(GoldenPredictor, LoadedModelServesBatchQueries) {
  std::istringstream in(slurp(data_path("golden_predictor.txt")));
  const auto predictor = core::TransferPredictor::load(in);
  // A mixed batch spanning per-edge models and the global fallback.
  std::vector<core::PlannedTransfer> planned;
  for (std::uint32_t s = 0; s < 3; ++s) {
    core::PlannedTransfer transfer;
    transfer.src = s;
    transfer.dst = (s + 1) % 3;
    transfer.bytes = 1e9 * static_cast<double>(s + 1);
    planned.push_back(transfer);
    transfer.dst = 77;  // No history: global fallback.
    planned.push_back(transfer);
  }
  const auto rates = predictor.predict_rates_mbps(planned);
  ASSERT_EQ(rates.size(), planned.size());
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_GT(rates[i], 0.0);
    EXPECT_EQ(rates[i], predictor.predict_rate_mbps(planned[i]));
  }
}

}  // namespace
}  // namespace xfl
