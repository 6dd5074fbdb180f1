#include "report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/json.hpp"

namespace perfbench {

std::vector<MetricSpec> declared_metrics(const std::filesystem::path& path, bool per_layer) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  const auto spec = xfl::serve::parse_json(text.str());
  const auto* list = spec.find(per_layer ? "per_layer" : "end_to_end");
  if (list == nullptr || !list->is_array())
    throw std::runtime_error(path.string() + ": no metric list for this mode");
  std::vector<MetricSpec> metrics;
  for (const auto& entry : list->array) {
    const auto* name = entry.find("name");
    const auto* unit = entry.find("unit");
    if (name == nullptr || !name->is_string() || unit == nullptr || !unit->is_string())
      throw std::runtime_error(path.string() + ": a metric lacks a name or unit");
    metrics.push_back({name->string, unit->string});
  }
  return metrics;
}

std::string declared_metrics_json(const Metrics& metrics, std::span<const MetricSpec> declared,
                                  bool zero_unset) {
  for (const auto& [name, value] : metrics) {
    bool known = false;
    for (const auto& spec : declared) known = known || spec.name == name;
    if (!known) throw std::logic_error("undeclared metric: " + name);
  }
  JsonObject out;
  for (const auto& spec : declared) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end() && !zero_unset)
      throw std::logic_error("declared metric not measured: " + spec.name);
    out.raw(spec.name, JsonObject()
                           .num("value", it == metrics.end() ? 0.0 : it->second)
                           .str("unit", spec.unit)
                           .text());
  }
  return out.text();
}

std::string json_string(std::string_view text) {
  std::string out;
  xfl::serve::append_json_string(out, text);
  return out;
}

JsonObject& JsonObject::num(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), xfl::serve::json_number(value));
  return *this;
}

JsonObject& JsonObject::str(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key), json_string(value));
  return *this;
}

JsonObject& JsonObject::raw(std::string_view key, std::string json) {
  fields_.emplace_back(std::string(key), std::move(json));
  return *this;
}

std::string JsonObject::text() const {
  std::string out = "{";
  for (const auto& [key, value] : fields_) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + value;
  }
  return out + "}";
}

}  // namespace perfbench
