#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"

namespace xfl::serve {

namespace {

/// Thrown internally to turn field-level validation failures into one
/// kBad frame; never escapes parse_frame.
struct FrameError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void reject(const std::string& what) { throw FrameError(what); }

/// The contention load fields in wire order: the JSON "load" keys and the
/// packed load block both follow this table.
constexpr struct {
  const char* key;
  double features::ContentionFeatures::*member;
} kLoadFields[] = {
    {"k_sout", &features::ContentionFeatures::k_sout},
    {"k_sin", &features::ContentionFeatures::k_sin},
    {"k_dout", &features::ContentionFeatures::k_dout},
    {"k_din", &features::ContentionFeatures::k_din},
    {"g_src", &features::ContentionFeatures::g_src},
    {"g_dst", &features::ContentionFeatures::g_dst},
    {"s_sout", &features::ContentionFeatures::s_sout},
    {"s_sin", &features::ContentionFeatures::s_sin},
    {"s_dout", &features::ContentionFeatures::s_dout},
    {"s_din", &features::ContentionFeatures::s_din},
};

/// True when any contention field is set; idle loads are elided on the
/// wire (the server defaults them identically).
bool any_load(const features::ContentionFeatures& load) {
  for (const auto& field : kLoadFields)
    if (load.*field.member != 0.0) return true;
  return false;
}

/// Narrow a wire integer into a smaller field, saturating: every range
/// limit below sits under the narrow type's maximum, so a saturated value
/// is still rejected instead of wrapping into range.
template <typename T>
T saturate(std::uint64_t value) {
  return static_cast<T>(
      std::min<std::uint64_t>(value, std::numeric_limits<T>::max()));
}

/// The range rules of a predict request, shared by both request codecs.
/// Returns the reason for rejecting it (worded as the JSON parser always
/// worded it), or an empty string.
std::string check_predict(const PredictRequest& request) {
  const core::PlannedTransfer& t = request.transfer;
  if (t.src > (1u << 30)) return "field 'src' out of range";
  if (t.dst > (1u << 30)) return "field 'dst' out of range";
  if (!(t.bytes >= 0.0) || !std::isfinite(t.bytes))
    return "'bytes' must be finite and non-negative";
  if (t.files < 1 || t.files > (1ull << 40)) return "field 'files' out of range";
  if (t.dirs < 1 || t.dirs > (1ull << 40)) return "field 'dirs' out of range";
  if (t.concurrency < 1 || t.concurrency > (1u << 20))
    return "field 'concurrency' out of range";
  if (t.parallelism < 1 || t.parallelism > (1u << 20))
    return "field 'parallelism' out of range";
  if (request.deadline_ms > 86400u * 1000u)
    return "field 'deadline_ms' out of range";
  for (const auto& field : kLoadFields)
    if (!std::isfinite(request.load.*field.member))
      return std::string("load field '") + field.key + "' must be finite";
  return {};
}

std::string extract_id(const JsonValue& root) {
  const JsonValue* id = root.find("id");
  if (id == nullptr) return {};
  if (id->is_string()) return id->string;
  if (id->is_number()) return json_number(id->number);
  reject("'id' must be a string or number");
}

double require_number(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) reject("missing required field '" + key + "'");
  if (!v->is_number()) reject("field '" + key + "' must be a number");
  return v->number;
}

/// Optional non-negative integral field with a default. Ranges are
/// check_predict's business; this only checks the JSON shape.
std::uint64_t integral_or(const JsonValue& object, const std::string& key,
                          std::uint64_t fallback) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) reject("field '" + key + "' must be a number");
  const double d = v->number;
  if (!(d >= 0.0) || d != std::floor(d) || d > 9.007199254740992e15)
    reject("field '" + key + "' must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

features::ContentionFeatures parse_load(const JsonValue& load) {
  if (!load.is_object()) reject("'load' must be an object");
  features::ContentionFeatures features;
  for (const auto& [key, value] : load.object) {
    if (!value.is_number()) reject("load field '" + key + "' must be a number");
    const auto field =
        std::find_if(std::begin(kLoadFields), std::end(kLoadFields),
                     [&key](const auto& f) { return key == f.key; });
    if (field == std::end(kLoadFields))
      reject("unknown load field '" + key + "'");
    features.*field->member = value.number;
  }
  return features;
}

Frame parse_admin(const JsonValue& root, std::string id) {
  const JsonValue* cmd = root.find("cmd");
  if (!cmd->is_string()) reject("'cmd' must be a string");
  Frame frame;
  frame.kind = Frame::Kind::kAdmin;
  frame.id = id;
  frame.admin.id = std::move(id);
  frame.admin.cmd = cmd->string;
  bool saw_registry = false;
  for (const auto& [key, value] : root.object) {
    if (key == "cmd" || key == "id") continue;
    if (key == "path") {
      if (!value.is_string()) reject("'path' must be a string");
      frame.admin.path = value.string;
      continue;
    }
    if (key == "registry") {
      if (!value.is_bool()) reject("'registry' must be a boolean");
      frame.admin.registry = value.boolean;
      saw_registry = true;
      continue;
    }
    reject("unknown field '" + key + "'");
  }
  if (frame.admin.cmd != "ping" && frame.admin.cmd != "stats" &&
      frame.admin.cmd != "reload" && frame.admin.cmd != "retrain-status")
    reject("unknown cmd '" + frame.admin.cmd + "'");
  if (!frame.admin.path.empty() && frame.admin.cmd != "reload")
    reject("'path' is only valid with cmd 'reload'");
  if (saw_registry && frame.admin.cmd != "stats")
    reject("'registry' is only valid with cmd 'stats'");
  return frame;
}

Frame parse_feedback(const JsonValue& root, std::string id) {
  Frame frame;
  frame.kind = Frame::Kind::kFeedback;
  frame.id = id;
  frame.feedback.id = std::move(id);
  for (const auto& [key, value] : root.object) {
    (void)value;
    if (key != "id" && key != "feedback" && key != "observed_mbps")
      reject("unknown field '" + key + "'");
  }
  const JsonValue* trace = root.find("feedback");
  if (!trace->is_string()) reject("'feedback' must be a trace-id string");
  if (!parse_trace_id(trace->string, frame.feedback.trace_id))
    reject("'feedback' must look like \"t<number>\"");
  frame.feedback.observed_mbps = require_number(root, "observed_mbps");
  if (!std::isfinite(frame.feedback.observed_mbps) ||
      !(frame.feedback.observed_mbps > 0.0))
    reject("'observed_mbps' must be finite and positive");
  return frame;
}

Frame parse_predict(const JsonValue& root, std::string id) {
  Frame frame;
  frame.kind = Frame::Kind::kPredict;
  frame.id = std::move(id);

  for (const auto& [key, value] : root.object) {
    (void)value;
    if (key != "id" && key != "src" && key != "dst" && key != "bytes" &&
        key != "files" && key != "dirs" && key != "concurrency" &&
        key != "parallelism" && key != "deadline_ms" && key != "load" &&
        key != "explain" && key != "top_k")
      reject("unknown field '" + key + "'");
  }

  auto& request = frame.predict;
  if (const JsonValue* explain = root.find("explain")) {
    if (!explain->is_bool()) reject("'explain' must be a boolean");
    request.explain = explain->boolean;
  }
  if (root.find("top_k") != nullptr) {
    if (!request.explain) reject("'top_k' is only valid with 'explain'");
    const std::uint64_t top_k = integral_or(root, "top_k", 0);
    if (top_k > 0xffff) reject("field 'top_k' out of range");
    request.top_k = static_cast<std::uint16_t>(top_k);
  }

  auto& transfer = request.transfer;
  if (root.find("src") == nullptr) reject("missing required field 'src'");
  if (root.find("dst") == nullptr) reject("missing required field 'dst'");
  transfer.src = saturate<endpoint::EndpointId>(integral_or(root, "src", 0));
  transfer.dst = saturate<endpoint::EndpointId>(integral_or(root, "dst", 0));
  transfer.bytes = require_number(root, "bytes");
  transfer.files = integral_or(root, "files", transfer.files);
  transfer.dirs = integral_or(root, "dirs", transfer.dirs);
  transfer.concurrency = saturate<std::uint32_t>(
      integral_or(root, "concurrency", transfer.concurrency));
  transfer.parallelism = saturate<std::uint32_t>(
      integral_or(root, "parallelism", transfer.parallelism));
  request.deadline_ms = integral_or(root, "deadline_ms", 0);
  if (const JsonValue* load = root.find("load"))
    request.load = parse_load(*load);
  if (std::string why = check_predict(request); !why.empty()) reject(why);
  return frame;
}

void append_field(std::string& out, const char* key, std::string_view value,
                  bool quote = false) {
  if (out.back() != '{') out.push_back(',');
  append_json_string(out, key);
  out.push_back(':');
  if (quote)
    append_json_string(out, value);
  else
    out += value;
}

}  // namespace

Frame parse_frame(const std::string& line) {
  Frame bad;
  bad.kind = Frame::Kind::kBad;
  if (line.size() > kMaxFrameBytes) {
    bad.error = "frame exceeds " + std::to_string(kMaxFrameBytes) + " bytes";
    return bad;
  }
  JsonValue root;
  try {
    root = parse_json(line);
  } catch (const std::exception& error) {
    bad.error = error.what();
    return bad;
  }
  if (!root.is_object()) {
    bad.error = "frame must be a JSON object";
    return bad;
  }
  try {
    std::string id = extract_id(root);
    bad.id = id;  // Preserved for the error response if parsing fails below.
    if (root.find("cmd") != nullptr) return parse_admin(root, std::move(id));
    if (root.find("feedback") != nullptr)
      return parse_feedback(root, std::move(id));
    return parse_predict(root, std::move(id));
  } catch (const FrameError& error) {
    bad.error = error.what();
    return bad;
  }
}

std::string trace_id_string(std::uint64_t trace_id) {
  std::string out = "t";
  out += std::to_string(trace_id);
  return out;
}

bool parse_trace_id(const std::string& text, std::uint64_t& trace_id) {
  if (text.size() < 2 || text.size() > 21 || text[0] != 't') return false;
  std::uint64_t value = 0;
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  trace_id = value;
  return true;
}

namespace {

std::string request_line(const std::string& id,
                         const core::PlannedTransfer& transfer,
                         const features::ContentionFeatures& load,
                         std::uint64_t deadline_ms, bool explain,
                         std::uint16_t top_k) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "src", std::to_string(transfer.src));
  append_field(out, "dst", std::to_string(transfer.dst));
  append_field(out, "bytes", json_number(transfer.bytes));
  append_field(out, "files", std::to_string(transfer.files));
  append_field(out, "dirs", std::to_string(transfer.dirs));
  append_field(out, "concurrency", std::to_string(transfer.concurrency));
  append_field(out, "parallelism", std::to_string(transfer.parallelism));
  if (deadline_ms > 0)
    append_field(out, "deadline_ms", std::to_string(deadline_ms));
  if (explain) {
    append_field(out, "explain", "true");
    if (top_k > 0) append_field(out, "top_k", std::to_string(top_k));
  }
  if (any_load(load)) {
    std::string nested = "{";
    for (const auto& field : kLoadFields)
      append_field(nested, field.key, json_number(load.*field.member));
    nested.push_back('}');
    append_field(out, "load", nested);
  }
  out += "}\n";
  return out;
}

/// Feature indices ordered by |contribution| descending (ties keep the
/// model's feature order), truncated to top_k when top_k > 0. Both
/// encoders write the explain block in this order, so the framings agree
/// on which contributions a truncated reply keeps.
std::vector<std::size_t> attribution_order(
    const std::vector<double>& contributions, std::uint16_t top_k) {
  std::vector<std::size_t> order(contributions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&contributions](std::size_t a, std::size_t b) {
                     return std::abs(contributions[a]) >
                            std::abs(contributions[b]);
                   });
  if (top_k > 0 && top_k < order.size()) order.resize(top_k);
  return order;
}

}  // namespace

std::string predict_request_line(const std::string& id,
                                 const core::PlannedTransfer& transfer,
                                 const features::ContentionFeatures& load,
                                 std::uint64_t deadline_ms) {
  return request_line(id, transfer, load, deadline_ms, /*explain=*/false, 0);
}

std::string explain_request_line(const std::string& id,
                                 const core::PlannedTransfer& transfer,
                                 const features::ContentionFeatures& load,
                                 std::uint64_t deadline_ms,
                                 std::uint16_t top_k) {
  return request_line(id, transfer, load, deadline_ms, /*explain=*/true,
                      top_k);
}

std::string feedback_request_line(const std::string& id,
                                  const std::string& trace_id,
                                  double observed_mbps) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "feedback", trace_id, /*quote=*/true);
  append_field(out, "observed_mbps", json_number(observed_mbps));
  out += "}\n";
  return out;
}

Reply Reply::predicted(double rate_mbps, bool edge_model,
                       std::uint64_t model_version, std::uint64_t trace_id,
                       double server_ms) {
  Reply reply;
  reply.rate_mbps = rate_mbps;
  reply.edge_model = edge_model;
  reply.model_version = model_version;
  reply.trace_id = trace_id;
  reply.server_ms = server_ms;
  return reply;
}

Reply Reply::explained(const core::RateExplanation& explanation,
                       std::uint64_t model_version, std::uint64_t trace_id,
                       double server_ms, std::uint16_t top_k) {
  Reply reply = predicted(explanation.rate_mbps, explanation.edge_model,
                          model_version, trace_id, server_ms);
  reply.explanation = &explanation;
  reply.top_k = top_k;
  return reply;
}

Reply Reply::failed(const char* code, std::string_view message,
                    std::uint64_t trace_id, double server_ms) {
  Reply reply;
  reply.error = code;
  reply.message = message;
  reply.trace_id = trace_id;
  reply.server_ms = server_ms;
  return reply;
}

std::string json_reply(const std::string& id, const Reply& reply) {
  const bool ok = reply.error == nullptr;
  const core::RateExplanation* explained = ok ? reply.explanation : nullptr;
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", ok ? "true" : "false");
  if (ok) {
    append_field(out, "rate_mbps", json_number(reply.rate_mbps));
    if (explained != nullptr) {
      append_field(out, "raw_mbps", json_number(explained->raw_mbps));
      append_field(out, "bias_mbps", json_number(explained->bias_mbps));
      append_field(out, "low_mbps", json_number(explained->low_mbps));
      append_field(out, "high_mbps", json_number(explained->high_mbps));
    }
    append_field(out, "model", reply.edge_model ? "edge" : "global",
                 /*quote=*/true);
    append_field(out, "version", std::to_string(reply.model_version));
  } else {
    append_field(out, "error", reply.error, /*quote=*/true);
    append_field(out, "message", reply.message, /*quote=*/true);
  }
  if (ok || reply.trace_id != 0) {
    append_field(out, "trace_id", trace_id_string(reply.trace_id),
                 /*quote=*/true);
    append_field(out, "server_ms", json_number(reply.server_ms));
  }
  if (explained != nullptr) {
    std::string entries = "[";
    for (const std::size_t c :
         attribution_order(explained->contributions, reply.top_k)) {
      if (entries.back() != '[') entries.push_back(',');
      std::string entry = "{";
      append_field(entry, "feature", explained->feature_names[c],
                   /*quote=*/true);
      append_field(entry, "mbps", json_number(explained->contributions[c]));
      entry.push_back('}');
      entries += entry;
    }
    entries.push_back(']');
    append_field(out, "contributions", entries);
  }
  out += "}\n";
  return out;
}

std::string predict_response(const std::string& id, double rate_mbps,
                             bool edge_model, std::uint64_t model_version,
                             std::uint64_t trace_id, double server_ms) {
  return json_reply(id, Reply::predicted(rate_mbps, edge_model, model_version,
                                         trace_id, server_ms));
}

std::string explain_response(const std::string& id,
                             const core::RateExplanation& explanation,
                             std::uint64_t model_version,
                             std::uint64_t trace_id, double server_ms,
                             std::uint16_t top_k) {
  return json_reply(id, Reply::explained(explanation, model_version, trace_id,
                                         server_ms, top_k));
}

std::string error_response(const std::string& id, const char* code,
                           const std::string& message,
                           std::uint64_t trace_id, double server_ms) {
  return json_reply(id, Reply::failed(code, message, trace_id, server_ms));
}

std::string feedback_response(const std::string& id,
                              const std::string& trace_id,
                              const ServeMonitor::FeedbackResult& result) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "trace_id", trace_id, /*quote=*/true);
  append_field(out, "matched", result.matched ? "true" : "false");
  if (result.matched) {
    append_field(out, "ape_pct", json_number(result.ape_pct));
    append_field(out, "predicted_mbps", json_number(result.predicted_mbps));
    append_field(out, "version", std::to_string(result.model_version));
    append_field(out, "mdape_pct", json_number(result.mdape_pct));
    append_field(out, "window", std::to_string(result.window_count));
    append_field(out, "alarm", result.alarm ? "true" : "false");
  }
  out += "}\n";
  return out;
}

std::string pong_response(const std::string& id, std::uint64_t model_version) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "pong", "true");
  append_field(out, "version", std::to_string(model_version));
  out += "}\n";
  return out;
}

std::string retrain_status_response(const std::string& id,
                                    const std::string& retrain_json) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "retrain",
               retrain_json.empty() ? "{\"enabled\":false}" : retrain_json);
  out += "}\n";
  return out;
}

std::string reload_response(const std::string& id,
                            std::uint64_t model_version) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "reloaded", "true");
  append_field(out, "version", std::to_string(model_version));
  out += "}\n";
  return out;
}

namespace {

std::string quantiles_object(const StageQuantiles& q) {
  std::string out = "{";
  append_field(out, "count", std::to_string(q.count));
  append_field(out, "p50", json_number(q.p50));
  append_field(out, "p95", json_number(q.p95));
  append_field(out, "p99", json_number(q.p99));
  out.push_back('}');
  return out;
}

}  // namespace

std::string stats_response(const std::string& id, const StatsReport& report) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "queue_depth", std::to_string(report.queue_depth));
  append_field(out, "connections", std::to_string(report.connections));
  append_field(out, "shards", std::to_string(report.shards));
  append_field(out, "steals", std::to_string(report.steals));
  append_field(out, "version", std::to_string(report.model_version));
  append_field(out, "kernel", report.kernel, /*quote=*/true);
  append_field(out, "requests", std::to_string(report.requests));
  append_field(out, "rejected", std::to_string(report.rejected));
  append_field(out, "uptime_seconds", json_number(report.uptime_seconds));

  std::string latency = "{";
  for (const auto& [stage, quantiles] : report.latency_us)
    append_field(latency, stage.c_str(), quantiles_object(quantiles));
  latency.push_back('}');
  append_field(out, "latency_us", latency);

  std::string batch = "{";
  append_field(batch, "batches", std::to_string(report.batches));
  append_field(batch, "rows", std::to_string(report.batch_rows));
  append_field(batch, "size", quantiles_object(report.batch_size));
  batch.push_back('}');
  append_field(out, "batch", batch);

  std::string versions = "{";
  for (const auto& [version, stats] : report.versions) {
    std::string entry = "{";
    append_field(entry, "predictions", std::to_string(stats.predictions));
    append_field(entry, "feedback", std::to_string(stats.feedback));
    append_field(entry, "mdape_pct", json_number(stats.mdape_pct));
    append_field(entry, "window", std::to_string(stats.window_count));
    append_field(entry, "alarm", stats.alarm ? "true" : "false");
    entry.push_back('}');
    append_field(versions, std::to_string(version).c_str(), entry);
  }
  versions.push_back('}');
  append_field(out, "versions", versions);

  std::string drift = "{";
  append_field(drift, "alarm", report.drift_alarm ? "true" : "false");
  append_field(drift, "alarms_total", std::to_string(report.drift_alarms_total));
  append_field(drift, "window", std::to_string(report.drift_options.drift_window));
  append_field(drift, "threshold_pct",
               json_number(report.drift_options.drift_threshold_pct));
  append_field(drift, "min_samples",
               std::to_string(report.drift_options.drift_min_samples));
  append_field(drift, "feedback", std::to_string(report.feedback_count));
  append_field(drift, "unmatched", std::to_string(report.feedback_unmatched));

  const auto& shift = report.attribution_shift;
  std::string shift_json = "{";
  append_field(shift_json, "valid", shift.valid ? "true" : "false");
  append_field(shift_json, "events_total", std::to_string(shift.events));
  if (shift.valid) {
    append_field(shift_json, "model_version",
                 std::to_string(shift.model_version));
    std::string ranked = "[";
    for (const auto& entry : shift.ranked) {
      if (ranked.back() != '[') ranked.push_back(',');
      std::string item = "{";
      append_field(item, "feature", entry.feature, /*quote=*/true);
      append_field(item, "baseline_mean_mbps",
                   json_number(entry.baseline_mean_mbps));
      append_field(item, "alarm_mean_mbps",
                   json_number(entry.alarm_mean_mbps));
      append_field(item, "delta_mbps", json_number(entry.delta_mbps));
      item.push_back('}');
      ranked += item;
    }
    ranked.push_back(']');
    append_field(shift_json, "ranked", ranked);
  }
  shift_json.push_back('}');
  append_field(drift, "attribution_shift", shift_json);
  drift.push_back('}');
  append_field(out, "drift", drift);

  if (!report.registry_json.empty())
    append_field(out, "metrics", report.registry_json);
  out += "}\n";
  return out;
}

// ------------------------------------------------------------ binary codec

namespace {

// Integers travel little-endian byte by byte; doubles travel as the
// little-endian bytes of their IEEE-754 bit pattern, so a decoded rate is
// bit-identical to the encoded one (the binary analogue of %.17g).

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// u16 length + bytes. The cap keeps the frame bounded whatever the text
/// source; a truncated message beats an unparseable frame.
void put_text(std::string& out, std::string_view text) {
  const std::size_t length = std::min<std::size_t>(text.size(), 0xffff);
  put_u16(out, static_cast<std::uint16_t>(length));
  out.append(text.data(), length);
}

/// Bounds-checked cursor over a payload; every read either succeeds in
/// full or returns false with the cursor untouched — no partial reads,
/// no access past the view.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t off = 0;

  explicit Cursor(std::string_view payload)
      : data(payload.data()), size(payload.size()) {}

  std::size_t remaining() const { return size - off; }

  bool u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = static_cast<std::uint8_t>(data[off++]);
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (remaining() < 2) return false;
    v = 0;
    for (int shift = 0; shift < 16; shift += 8)
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<std::uint8_t>(data[off++]))
                  << shift);
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int shift = 0; shift < 32; shift += 8)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[off++]))
           << shift;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int shift = 0; shift < 64; shift += 8)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[off++]))
           << shift;
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  /// The put_text form: u16 length + bytes.
  bool text(std::string& v) {
    const std::size_t at = off;
    std::uint16_t length = 0;
    if (!u16(length) || remaining() < length) {
      off = at;
      return false;
    }
    v.assign(data + off, length);
    off += length;
    return true;
  }
};

/// Open a frame: emit the length placeholder (patched by seal_frame) and
/// the type byte; returns the offset of the placeholder.
std::size_t open_frame(std::string& out, BinaryType type) {
  const std::size_t at = out.size();
  put_u32(out, 0);
  put_u8(out, static_cast<std::uint8_t>(type));
  return at;
}

void seal_frame(std::string& out, std::size_t at) {
  const std::uint64_t length = out.size() - at - 4;
  XFL_EXPECTS(length >= 1 && length <= kMaxFrameBytes);
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((length >> (8 * i)) & 0xff);
}

constexpr std::uint8_t kLoadFlag = 0x01;  ///< kPredict: load block present.
constexpr std::uint8_t kEdgeFlag = 0x01;  ///< kPredictOk: edge model answered.

}  // namespace

BinaryDecode decode_binary_frame(std::string_view buffer) {
  BinaryDecode result;
  if (buffer.size() < 5) return result;  // kNeedMore: header incomplete.
  Cursor cursor(buffer);
  std::uint32_t length = 0;
  cursor.u32(length);
  if (length < 1) {
    result.status = BinaryDecode::Status::kBad;
    result.error = "binary frame length must cover the type byte";
    return result;
  }
  if (length > kMaxFrameBytes) {
    result.status = BinaryDecode::Status::kBad;
    result.error = "binary frame exceeds " + std::to_string(kMaxFrameBytes) +
                   " bytes";
    return result;
  }
  std::uint8_t type = 0;
  cursor.u8(type);
  if (type > static_cast<std::uint8_t>(BinaryType::kExplainOk)) {
    result.status = BinaryDecode::Status::kBad;
    result.error = "unknown binary frame type " + std::to_string(type);
    return result;
  }
  if (buffer.size() < 4u + length) return result;  // kNeedMore: body short.
  result.status = BinaryDecode::Status::kFrame;
  result.consumed = 4u + length;
  result.type = static_cast<BinaryType>(type);
  result.payload = buffer.substr(5, length - 1);
  return result;
}

namespace {

/// Packed predict / explain request: the predict payload, plus a
/// trailing u16 top_k for kExplain.
std::string packed_request(BinaryType type, std::uint64_t id,
                           const core::PlannedTransfer& transfer,
                           const features::ContentionFeatures& load,
                           std::uint64_t deadline_ms, std::uint16_t top_k) {
  std::string out;
  const std::size_t at = open_frame(out, type);
  put_u64(out, id);
  put_u32(out, transfer.src);
  put_u32(out, transfer.dst);
  put_f64(out, transfer.bytes);
  put_u64(out, transfer.files);
  put_u64(out, transfer.dirs);
  put_u32(out, transfer.concurrency);
  put_u32(out, transfer.parallelism);
  put_u32(out, saturate<std::uint32_t>(deadline_ms));
  const bool loaded = any_load(load);
  put_u8(out, loaded ? kLoadFlag : 0);
  if (loaded)
    for (const auto& field : kLoadFields) put_f64(out, load.*field.member);
  if (type == BinaryType::kExplain) put_u16(out, top_k);
  seal_frame(out, at);
  return out;
}

Frame parse_binary_predict_impl(std::string_view payload, bool explain) {
  Frame frame;
  frame.kind = Frame::Kind::kBad;
  auto& request = frame.predict;
  request.binary = true;
  Cursor cursor(payload);
  if (!cursor.u64(request.binary_id)) {
    frame.error = "binary predict payload truncated before id";
    return frame;
  }
  // From here on the id is known; keep it on the bad frame so the error
  // response stays correlatable, exactly like the JSON parser does.
  frame.id = std::to_string(request.binary_id);

  auto reject = [&frame](std::string what) {
    frame.error = std::move(what);
    return frame;
  };

  auto& transfer = request.transfer;
  std::uint32_t deadline_ms = 0;
  std::uint8_t flags = 0;
  if (!cursor.u32(transfer.src) || !cursor.u32(transfer.dst) ||
      !cursor.f64(transfer.bytes) || !cursor.u64(transfer.files) ||
      !cursor.u64(transfer.dirs) || !cursor.u32(transfer.concurrency) ||
      !cursor.u32(transfer.parallelism) || !cursor.u32(deadline_ms) ||
      !cursor.u8(flags))
    return reject("binary predict payload truncated");
  request.deadline_ms = deadline_ms;
  if ((flags & ~kLoadFlag) != 0)
    return reject("unknown binary predict flags");
  if ((flags & kLoadFlag) != 0)
    for (const auto& field : kLoadFields)
      if (!cursor.f64(request.load.*field.member))
        return reject("binary predict load block truncated");
  if (explain) {
    if (!cursor.u16(request.top_k))
      return reject("binary explain payload truncated before top_k");
    request.explain = true;
  }
  if (cursor.remaining() != 0)
    return reject("binary predict payload has trailing bytes");
  if (std::string why = check_predict(request); !why.empty())
    return reject(std::move(why));
  frame.kind = Frame::Kind::kPredict;
  return frame;
}

}  // namespace

std::string binary_predict_request(std::uint64_t id,
                                   const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load,
                                   std::uint64_t deadline_ms) {
  return packed_request(BinaryType::kPredict, id, transfer, load, deadline_ms,
                        0);
}

std::string binary_explain_request(std::uint64_t id,
                                   const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load,
                                   std::uint64_t deadline_ms,
                                   std::uint16_t top_k) {
  return packed_request(BinaryType::kExplain, id, transfer, load, deadline_ms,
                        top_k);
}

Frame parse_binary_predict(std::string_view payload) {
  return parse_binary_predict_impl(payload, /*explain=*/false);
}

Frame parse_binary_explain(std::string_view payload) {
  return parse_binary_predict_impl(payload, /*explain=*/true);
}

std::string packed_reply(std::uint64_t wire_id, const Reply& reply) {
  const bool ok = reply.error == nullptr;
  const core::RateExplanation* explained = ok ? reply.explanation : nullptr;
  std::string out;
  const std::size_t at = open_frame(out, !ok ? BinaryType::kError
                                         : explained != nullptr
                                             ? BinaryType::kExplainOk
                                             : BinaryType::kPredictOk);
  put_u64(out, wire_id);
  if (ok) {
    put_f64(out, reply.rate_mbps);
    put_u8(out, reply.edge_model ? kEdgeFlag : 0);
    put_u64(out, reply.model_version);
  }
  put_u64(out, reply.trace_id);
  put_f64(out, reply.server_ms);
  if (!ok) {
    put_text(out, reply.error);
    put_text(out, reply.message);
  }
  if (explained != nullptr) {
    put_f64(out, explained->raw_mbps);
    put_f64(out, explained->bias_mbps);
    put_f64(out, explained->low_mbps);
    put_f64(out, explained->high_mbps);
    const auto order =
        attribution_order(explained->contributions, reply.top_k);
    put_u16(out, static_cast<std::uint16_t>(order.size()));
    for (const std::size_t c : order) {
      put_text(out, explained->feature_names[c]);
      put_f64(out, explained->contributions[c]);
    }
  }
  seal_frame(out, at);
  return out;
}

std::string binary_predict_response(std::uint64_t id, double rate_mbps,
                                    bool edge_model,
                                    std::uint64_t model_version,
                                    std::uint64_t trace_id,
                                    double server_ms) {
  return packed_reply(id, Reply::predicted(rate_mbps, edge_model,
                                           model_version, trace_id, server_ms));
}

std::string binary_explain_response(std::uint64_t id,
                                    const core::RateExplanation& explanation,
                                    std::uint64_t model_version,
                                    std::uint64_t trace_id, double server_ms,
                                    std::uint16_t top_k) {
  return packed_reply(id, Reply::explained(explanation, model_version,
                                           trace_id, server_ms, top_k));
}

std::string binary_error_response(std::uint64_t id, const char* code,
                                  const std::string& message,
                                  std::uint64_t trace_id, double server_ms) {
  return packed_reply(id, Reply::failed(code, message, trace_id, server_ms));
}

std::string binary_json_frame(std::string_view json_document) {
  while (!json_document.empty() &&
         (json_document.back() == '\n' || json_document.back() == '\r'))
    json_document.remove_suffix(1);
  std::string out;
  const std::size_t at = open_frame(out, BinaryType::kJson);
  out.append(json_document.data(), json_document.size());
  seal_frame(out, at);
  return out;
}

BinaryPredictReply parse_binary_reply(BinaryType type,
                                      std::string_view payload) {
  if (type != BinaryType::kPredictOk && type != BinaryType::kExplainOk &&
      type != BinaryType::kError)
    throw std::runtime_error("not a binary reply frame");
  BinaryPredictReply reply;
  reply.ok = type != BinaryType::kError;
  Cursor cursor(payload);
  std::uint8_t flags = 0;
  bool good = cursor.u64(reply.id);
  if (reply.ok)
    good = good && cursor.f64(reply.rate_mbps) && cursor.u8(flags) &&
           cursor.u64(reply.model_version);
  good = good && cursor.u64(reply.trace_id) && cursor.f64(reply.server_ms);
  if (!reply.ok)
    good = good && cursor.text(reply.error) && cursor.text(reply.message);
  reply.edge_model = (flags & kEdgeFlag) != 0;
  if (good && type == BinaryType::kExplainOk) {
    std::uint16_t entries = 0;
    good = cursor.f64(reply.raw_mbps) && cursor.f64(reply.bias_mbps) &&
           cursor.f64(reply.low_mbps) && cursor.f64(reply.high_mbps) &&
           cursor.u16(entries);
    for (std::uint16_t e = 0; good && e < entries; ++e) {
      auto& [name, mbps] = reply.contributions.emplace_back();
      good = cursor.text(name) && cursor.f64(mbps);
    }
  }
  if (!good || cursor.remaining() != 0)
    throw std::runtime_error("malformed binary reply frame");
  return reply;
}

}  // namespace xfl::serve
