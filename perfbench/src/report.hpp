// Metrics and JSON output. Metric names and units are declared once, in
// BENCHMARK.json; workloads set values by name, and the result carries
// exactly the metrics declared for the run's mode, with their units.
#pragma once

#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Metric values by declared name.
using Metrics = std::map<std::string, double>;

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json at `path` declares for a mode: its
/// "end_to_end" list for untraced runs, "per_layer" for traced ones, in
/// declaration order. Throws when the file is missing or malformed.
std::vector<MetricSpec> declared_metrics(const std::filesystem::path& path, bool per_layer);

/// The result's "metrics" object: every declared metric with its unit.
/// Throws for a value set under an undeclared name. A declared metric
/// left unset reads 0 when `zero_unset` (a layer the workload never
/// calls, e.g. serve.* offline) and throws otherwise.
std::string declared_metrics_json(const Metrics& metrics, std::span<const MetricSpec> declared,
                                  bool zero_unset);

/// JSON string literal of `text`, quotes included.
std::string json_string(std::string_view text);

/// An ordered JSON object for the detailed report, filled field by field.
/// Numbers round-trip (%.17g); non-finite ones become null.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& raw(std::string_view key, std::string json);
  std::string text() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
