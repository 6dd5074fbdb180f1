// xfl_perfbench: runs one benchmark workload in-process against the
// xferlearn library and prints its metrics. perfbench/run.py builds it and
// is the command BENCHMARK.json names; run directly:
//
//   xfl_perfbench --workload offline_production --seed 1 --seconds 10 --trace 0
//
// The last stdout line is the result object ({"correct", "attempted",
// "failed", "metrics"}); the lines before it are the detailed report (host
// and build record, per-phase details), also written to --report-dir. A
// traced run (--trace 1) reports the per-layer metrics and writes its
// spans as Chrome trace JSON there. Metric names and units come from
// --declaration (default BENCHMARK.json in the working directory).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "obs/log.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path workdir = ".bench_build/runs";
  std::filesystem::path report_dir = ".bench_build/reports";
  std::filesystem::path declaration = "BENCHMARK.json";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
      have_seed = used == value.size();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      if (used != value.size() || !(args.seconds > 0.0)) throw std::invalid_argument("--seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--report-dir") {
      args.report_dir = value;
    } else if (flag == "--declaration") {
      args.declaration = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0)
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  return args;
}

Outcome run_workload(const Args& args, const RunContext& context) {
  if (args.workload == "offline_production") return run_offline(context);
  if (args.workload == kBinaryPredict.name) return run_serve(kBinaryPredict, context);
  if (args.workload == kJsonMixed.name) return run_serve(kJsonMixed, context);
  throw std::invalid_argument("unknown workload " + args.workload);
}

/// Layer self times, the traced window's unattributed share and the
/// tracing overhead, from the recorded spans.
void put_trace_metrics(const SpanRecorder& spans, const Outcome& outcome, Metrics& m) {
  const auto records = spans.spans();
  double bench = 0.0;
  for (const auto& [layer, seconds] : layer_self_seconds(records)) {
    if (layer == "sim" || layer == "logs" || layer == "features" || layer == "core" ||
        layer == "ml" || layer == "serve" || layer == "retrain")
      m["trace.self." + layer + "_s"] = seconds;
    else
      bench += seconds;  // The benchmark's own phases: pipeline, bench.
  }
  m["trace.self.bench_s"] = bench;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& s : records) intervals.emplace_back(s.start_ns, s.end_ns);
  const std::uint64_t window = outcome.window_end_ns - outcome.window_start_ns;
  const std::uint64_t covered =
      covered_ns(outcome.window_start_ns, outcome.window_end_ns, std::move(intervals));
  m["trace.unattributed_share"] =
      window == 0 ? 0.0 : 1.0 - static_cast<double>(covered) / static_cast<double>(window);
  m["trace.overhead_ratio"] = outcome.overhead_ratio;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::vector<MetricSpec> declared;
  try {
    args = parse_args(argc, argv);
    declared = declared_metrics(args.declaration, args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfl_perfbench: %s\n", e.what());
    return 2;
  }
  xfl::obs::LogConfig log_config;
  log_config.min_level = xfl::obs::LogLevel::kWarn;
  xfl::obs::configure_logging(log_config);

  const std::string run_name = args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
                               (args.trace ? "1" : "0");
  RunContext context;
  context.seed = args.seed;
  context.seconds = args.seconds;
  context.trace = args.trace;
  context.workdir = args.workdir / (run_name + "-" + std::to_string(::getpid()));
  SpanRecorder spans(args.trace);
  context.spans = &spans;

  Outcome outcome;
  HostRecord host;
  try {
    std::filesystem::remove_all(context.workdir);
    std::filesystem::create_directories(context.workdir);
    std::filesystem::create_directories(args.report_dir);
    host = read_host(context.workdir);
    outcome = run_workload(args, context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfl_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    std::error_code ec;
    std::filesystem::remove_all(context.workdir, ec);
    return 1;
  }
  std::filesystem::remove_all(context.workdir);

  Metrics& m = outcome.metrics;
  if (args.trace) {
    put_trace_metrics(spans, outcome, m);
    std::ofstream trace(args.report_dir / (run_name + ".trace.json"));
    spans.write_chrome_trace(trace);
  } else {
    m["ok_share"] = static_cast<double>(outcome.attempted - outcome.failed) /
                    static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  }
  // Correct means every output check held. Failed operations that are
  // not wrong outputs (a rejection when a host stall fills the admission
  // queues) count in `failed` and ok_share, not here.
  const bool correct = outcome.problems.empty() && outcome.attempted > 0;
  std::string metrics;
  try {
    metrics = declared_metrics_json(m, declared, args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfl_perfbench: %s\n", e.what());
    return 1;
  }

  std::string problems = "[";
  for (const auto& p : outcome.problems) problems += (problems.size() > 1 ? ", " : "") + json_string(p);
  JsonObject report;
  report.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .num("trace", args.trace ? 1 : 0)
      .raw("host", host_json(host, outcome.kernel))
      .raw("detail", outcome.detail.text())
      .raw("problems", problems + "]")
      .raw("metrics", metrics);
  const std::string report_text = report.text();
  std::ofstream(args.report_dir / (run_name + ".report.json")) << report_text << "\n";
  std::printf("%s\n", report_text.c_str());

  JsonObject result;
  result.raw("correct", correct ? "true" : "false")
      .num("attempted", static_cast<double>(outcome.attempted))
      .num("failed", static_cast<double>(outcome.failed))
      .raw("metrics", metrics);
  std::printf("%s\n", result.text().c_str());
  return correct ? 0 : 1;
}
