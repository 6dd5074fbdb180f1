// xferlearn - command-line front end for the library.
//
//   xferlearn simulate --scenario esnet|production|lmt [--seed N]
//                      [--out log.csv] [--anonymize]
//   xferlearn analyze  --log log.csv [--threshold 0.5]
//   xferlearn evaluate --log log.csv [--max-edges 30] [--min-transfers 300]
//   xferlearn train    --log log.csv --model-out model.txt
//                      [--min-edge-transfers 100]
//   xferlearn predict  (--log log.csv | --model model.txt)
//                      --src ID --dst ID --bytes BYTES
//                      [--files N] [--dirs N] [--concurrency C]
//                      [--parallelism P]
//   xferlearn predict-batch (--log log.csv | --model model.txt)
//                      --transfers planned.csv [--out predictions.csv]
//                      [--kernel auto|scalar|quantized]
//                      (planned.csv: src,dst,bytes[,files,dirs,
//                       concurrency,parallelism]; header row optional;
//                       served by the flattened batch-inference engine)
//   xferlearn export-dataset --log log.csv --src ID --dst ID --out data.csv
//   xferlearn serve    --model model.txt [--port N] [--bind ADDR]
//                      [--max-batch N] [--queue-cap N]
//                      [--shards N] [--frame-timeout-ms N]
//                      [--drift-window N] [--drift-threshold PCT]
//                      [--drift-min-samples N]
//                      [--journal-dir DIR] [--retrain-interval SECONDS]
//                      [--retrain-min-records N]
//                      [--kernel auto|scalar|quantized]
//                      (line-delimited JSON over TCP, with an opt-in
//                       length-prefixed binary framing — send the 8 bytes
//                       "XFLBIN1\n" to negotiate; epoll event loop, so
//                       idle connections are ~free; --shards 0 = auto
//                       picks the batcher worker count; SIGHUP or the
//                       {"cmd":"reload"} admin frame hot-swaps the model;
//                       SIGINT/SIGTERM drain gracefully; --journal-dir
//                       closes the drift loop: matched feedback is
//                       journalled there and a background worker refits
//                       the affected edge model on a drift alarm — or
//                       every --retrain-interval seconds — validating the
//                       candidate on held-out records before hot-swapping
//                       it in as a new model version)
//   xferlearn request  --port N [--host ADDR] --src ID --dst ID
//                      --bytes BYTES [--files N] [--dirs N]
//                      [--concurrency C] [--parallelism P]
//                      [--deadline-ms N] | --ping | --stats |
//                      --reload [--path model.txt] |
//                      --retrain-status |
//                      --feedback TRACE --observed-mbps X
//                      (--stats prints a summary plus a Prometheus-style
//                       dump of the server's live metrics registry;
//                       --retrain-status reports the background refit
//                       worker: cycles, accept/reject counts, last gate
//                       decision; --feedback joins an observed rate to the
//                       prediction whose reply carried trace id TRACE)
//   xferlearn explain  --port N [--host ADDR] --src ID --dst ID
//                      --bytes BYTES [--files N] [--dirs N]
//                      [--concurrency C] [--parallelism P]
//                      [--deadline-ms N] [--top-k K] [--binary]
//                      (asks the server for a prediction plus its Saabas
//                       per-feature attribution: each feature's MB/s
//                       contribution along the ensemble's decision paths,
//                       summing with the bias bit-exactly to the raw
//                       score; --top-k keeps only the K strongest
//                       contributions, --binary drives the packed
//                       kExplain frame instead of JSON)
//   xferlearn serve-bench (--model model.txt | --log log.csv)
//                      [--clients 1,4,16,64] [--seconds 2] [--max-batch N]
//                      [--queue-cap N] [--shards N] [--src ID --dst ID]
//                      [--connections N] [--binary] [--pipeline D]
//                      [--json-out BENCH_serve.json]
//                      [--kernel auto|scalar|quantized]
//                      (reports client round-trip quantiles next to the
//                       server's own serve.request.server_us histogram
//                       quantiles — the same estimator live stats use;
//                       --connections parks N idle sockets on the event
//                       loop for the whole run, --binary drives the
//                       packed frame protocol instead of JSON lines)
//
// Inference options, accepted by every subcommand (after the name):
//   --kernel auto|scalar|quantized  pin the process-wide batch-inference
//                              kernel dispatch before any model is built
//                              or loaded: "scalar" is the exact reference
//                              walk, "quantized" the fast lossless kernel.
//                              Same effect as the XFL_KERNEL environment
//                              variable; the flag wins when both are set.
//                              "auto" (default) picks quantized on AVX2
//                              CPUs and scalar elsewhere.
//
// A flag the command does not accept (a typo, or a retired flag such as
// serve --threads), a value flag with no value, or a stray positional
// argument exits 2 before the command runs.
//
// Observability options, accepted by every subcommand (after the name):
//   --log-level trace|debug|info|warn|error|off   (default info)
//   --log-json                 JSON-lines log records instead of text
//   --metrics-out <file>       write the metrics registry as JSON at exit
//   --trace-out <file>         enable stage tracing; write Chrome
//                              trace_event JSON (about:tracing / Perfetto)
//   --print-metrics            dump the metrics registry as text at exit
//
// Every subcommand works on the Globus-schema CSV produced by `simulate`
// or exported from a real transfer service.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/edge_model.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "features/dataset.hpp"
#include "logs/anonymize.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "retrain/retrainer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace xfl;

/// Strict numeric flag parse: the whole token must be a number, so typos
/// like `--transfers 12x` fail the run instead of silently truncating.
/// Throws std::runtime_error, which main() turns into a nonzero exit.
double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    throw std::runtime_error("bad value for " + flag + ": '" + text + "'");
  return parsed;
}

/// Minimal --flag value parser: returns the value after `name`, if present.
class ArgList {
 public:
  ArgList(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> value(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i)
      if (args_[i] == name) return args_[i + 1];
    return std::nullopt;
  }

  bool flag(const std::string& name) const {
    for (const auto& arg : args_)
      if (arg == name) return true;
    return false;
  }

  std::string value_or(const std::string& name, const std::string& fallback) const {
    return value(name).value_or(fallback);
  }

  double number_or(const std::string& name, double fallback) const {
    const auto v = value(name);
    return v ? parse_number(name, *v) : fallback;
  }

  /// Describes the first argument that is not one of `accepted` (a flag
  /// name followed by its value, or a switch from `switches`), or returns
  /// nullopt when every argument is accounted for.
  std::optional<std::string> first_unknown(
      std::span<const std::string_view> accepted,
      std::span<const std::string_view> switches) const {
    auto listed = [](std::span<const std::string_view> names,
                     const std::string& arg) {
      return std::find(names.begin(), names.end(), arg) != names.end();
    };
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& arg = args_[i];
      if (!listed(accepted, arg))
        return arg.rfind("-", 0) == 0 ? "unknown flag '" + arg + "'"
                                      : "unexpected argument '" + arg + "'";
      if (listed(switches, arg)) continue;
      if (++i == args_.size()) return "flag '" + arg + "' needs a value";
    }
    return std::nullopt;
  }

 private:
  std::vector<std::string> args_;
};

int usage() {
  std::fprintf(stderr,
               "usage: xferlearn <simulate|analyze|train|evaluate|predict|"
               "predict-batch|export-dataset|serve|request|explain|"
               "serve-bench> [options]\n"
               "observability (any command): --log-level <level> --log-json "
               "--metrics-out <file> --trace-out <file> --print-metrics\n"
               "run `xferlearn <command>` with no options for details in "
               "the header of tools/xferlearn.cpp\n");
  return 2;
}

logs::LogStore load_log(const ArgList& args) {
  const auto path = args.value("--log");
  if (!path) {
    std::fprintf(stderr, "error: --log <file.csv> is required\n");
    std::exit(2);
  }
  std::ifstream in(*path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path->c_str());
    std::exit(1);
  }
  auto log = logs::LogStore::read_csv(in);
  std::printf("loaded %zu transfers from %s\n", log.size(), path->c_str());
  return log;
}

int cmd_simulate(const ArgList& args) {
  const std::string which = args.value_or("--scenario", "esnet");
  const auto seed = static_cast<std::uint64_t>(args.number_or("--seed", 0.0));

  sim::Scenario scenario;
  if (which == "esnet") {
    sim::EsnetConfig config;
    if (seed != 0) config.seed = seed;
    config.transfers = static_cast<std::size_t>(
        args.number_or("--transfers", 2000.0));
    scenario = sim::make_esnet_testbed(config);
  } else if (which == "production") {
    sim::ProductionConfig config;
    if (seed != 0) config.seed = seed;
    scenario = sim::make_production(config);
  } else if (which == "lmt") {
    sim::LmtConfig config;
    if (seed != 0) config.seed = seed;
    scenario = sim::make_nersc_lmt(config);
  } else {
    std::fprintf(stderr, "error: unknown scenario '%s'\n", which.c_str());
    return 2;
  }

  std::printf("simulating %zu transfers (%s)...\n", scenario.workload.size(),
              which.c_str());
  auto result = scenario.run();
  logs::LogStore output = std::move(result.log);
  if (args.flag("--anonymize"))
    output = logs::anonymize(output, seed == 0 ? 0x5eedULL : seed).log;

  const std::string out_path = args.value_or("--out", "transfer_log.csv");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  output.write_csv(out);
  std::printf("wrote %zu transfers to %s%s\n", output.size(), out_path.c_str(),
              args.flag("--anonymize") ? " (anonymised)" : "");
  return 0;
}

int cmd_analyze(const ArgList& args) {
  const auto log = load_log(args);
  const double threshold = args.number_or("--threshold", 0.5);
  const auto context = core::analyze_log(log, /*contention_threads=*/0);

  TextTable table;
  table.set_title("edges by usage (top 20):");
  table.set_header({"src", "dst", "transfers", "Rmax (MB/s)",
                    "above T*Rmax", "retention %"});
  const auto edges = context.log.edges_by_usage();
  for (std::size_t e = 0; e < edges.size() && e < 20; ++e) {
    const auto indices = context.log.edge_transfers(edges[e]);
    const double rmax = context.log.edge_max_rate(edges[e]);
    std::size_t qualifying = 0;
    for (const auto i : indices)
      if (context.log[i].rate_Bps() >= threshold * rmax) ++qualifying;
    table.add_row({std::to_string(edges[e].src), std::to_string(edges[e].dst),
                   std::to_string(indices.size()),
                   TextTable::num(to_mbps(rmax), 1),
                   std::to_string(qualifying),
                   TextTable::num(100.0 * static_cast<double>(qualifying) /
                                      static_cast<double>(indices.size()),
                                  1)});
  }
  table.print(stdout);

  TextTable capability_table;
  capability_table.set_title("\nendpoint capability estimates (MB/s):");
  capability_table.set_header({"endpoint", "DRmax", "DWmax", "ROmax", "RImax"});
  for (const auto& [endpoint, capability] : context.capabilities) {
    capability_table.add_row({std::to_string(endpoint),
                              TextTable::num(to_mbps(capability.dr_max_Bps), 1),
                              TextTable::num(to_mbps(capability.dw_max_Bps), 1),
                              TextTable::num(to_mbps(capability.ro_max_Bps), 1),
                              TextTable::num(to_mbps(capability.ri_max_Bps), 1)});
  }
  capability_table.print(stdout);
  return 0;
}

int cmd_evaluate(const ArgList& args) {
  const auto log = load_log(args);
  const auto context = core::analyze_log(log, /*contention_threads=*/0);
  const auto max_edges =
      static_cast<std::size_t>(args.number_or("--max-edges", 30.0));
  const auto min_transfers =
      static_cast<std::size_t>(args.number_or("--min-transfers", 300.0));
  const auto edges =
      core::select_heavy_edges(context, min_transfers, 0.5, max_edges);
  if (edges.empty()) {
    std::fprintf(stderr,
                 "no edges with >= %zu transfers above 0.5*Rmax; lower "
                 "--min-transfers\n",
                 min_transfers);
    return 1;
  }
  ThreadPool pool;
  const auto reports = core::study_edges(context, edges, {}, &pool);
  TextTable table;
  table.set_header({"edge", "samples", "LR MdAPE %", "XGB MdAPE %"});
  for (const auto& report : reports)
    table.add_row({std::to_string(report.edge.src) + "->" +
                       std::to_string(report.edge.dst),
                   std::to_string(report.samples),
                   TextTable::num(report.lr_mdape, 1),
                   TextTable::num(report.xgb_mdape, 1)});
  table.print(stdout);
  return 0;
}

/// Load a saved predictor from --model, or train one from --log.
core::TransferPredictor acquire_predictor(const ArgList& args) {
  if (const auto model_path = args.value("--model")) {
    auto predictor = core::TransferPredictor::load_file(*model_path);
    std::printf("loaded predictor from %s\n", model_path->c_str());
    return predictor;
  }
  const auto log = load_log(args);
  core::TransferPredictor::Options options;
  options.min_edge_transfers = static_cast<std::size_t>(
      args.number_or("--min-edge-transfers", 100.0));
  core::TransferPredictor predictor(options);
  predictor.fit(log);
  return predictor;
}

int cmd_train(const ArgList& args) {
  const auto out_path = args.value("--model-out");
  if (!out_path) {
    std::fprintf(stderr, "error: --model-out <file> is required\n");
    return 2;
  }
  const core::TransferPredictor predictor = acquire_predictor(args);
  // Temp-file + atomic rename, so a serve daemon watching this path never
  // reloads a half-written model.
  predictor.save_file(*out_path);
  std::printf("trained predictor saved to %s\n", out_path->c_str());
  return 0;
}

/// The transfer named by the --src/--dst/--bytes/--files/--dirs/
/// --concurrency/--parallelism flags; nullopt when --src, --dst or --bytes
/// is missing.
std::optional<core::PlannedTransfer> planned_transfer(const ArgList& args) {
  const auto src = args.value("--src");
  const auto dst = args.value("--dst");
  const auto bytes = args.value("--bytes");
  if (!src || !dst || !bytes) return std::nullopt;
  core::PlannedTransfer planned;
  planned.src = static_cast<endpoint::EndpointId>(parse_number("--src", *src));
  planned.dst = static_cast<endpoint::EndpointId>(parse_number("--dst", *dst));
  planned.bytes = parse_number("--bytes", *bytes);
  planned.files = static_cast<std::uint64_t>(args.number_or("--files", 1.0));
  planned.dirs = static_cast<std::uint64_t>(args.number_or("--dirs", 1.0));
  planned.concurrency =
      static_cast<std::uint32_t>(args.number_or("--concurrency", 4.0));
  planned.parallelism =
      static_cast<std::uint32_t>(args.number_or("--parallelism", 4.0));
  return planned;
}

int cmd_predict(const ArgList& args) {
  const auto transfer = planned_transfer(args);
  if (!transfer) {
    std::fprintf(stderr, "error: --src, --dst and --bytes are required\n");
    return 2;
  }
  const core::PlannedTransfer& planned = *transfer;
  const core::TransferPredictor predictor = acquire_predictor(args);
  const logs::EdgeKey edge{planned.src, planned.dst};
  const double rate = predictor.predict_rate_mbps(planned);
  std::printf("model: %s\n",
              predictor.has_edge_model(edge) ? "per-edge" : "global fallback");
  std::printf("predicted rate:     %.1f MB/s\n", rate);
  std::printf("predicted duration: %.0f s for %s\n",
              predictor.estimate_duration_s(planned),
              format_bytes(planned.bytes).c_str());
  std::printf("top features: ");
  const auto importances = predictor.explain(edge);
  for (std::size_t i = 0; i < importances.size() && i < 5; ++i)
    std::printf("%s%s (%.2f)", i == 0 ? "" : ", ", importances[i].first.c_str(),
                importances[i].second);
  std::printf("\n");
  return 0;
}

int cmd_predict_batch(const ArgList& args) {
  const auto transfers_path = args.value("--transfers");
  if (!transfers_path) {
    std::fprintf(stderr, "error: --transfers <planned.csv> is required\n");
    return 2;
  }
  const auto rows = read_csv_file(*transfers_path);

  // Accept an optional header row: skip the first row when its bytes column
  // does not parse as a number.
  auto is_number = [](const std::string& field) {
    if (field.empty()) return false;
    char* end = nullptr;
    std::strtod(field.c_str(), &end);
    return end != field.c_str() && *end == '\0';
  };
  std::vector<core::PlannedTransfer> planned;
  planned.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() == 1 && row[0].empty()) continue;  // Blank line.
    if (r == 0 && row.size() >= 3 && !is_number(row[2])) continue;  // Header.
    if (row.size() < 3) {
      std::fprintf(stderr,
                   "error: %s line %zu: need at least src,dst,bytes\n",
                   transfers_path->c_str(), r + 1);
      return 1;
    }
    core::PlannedTransfer transfer;
    transfer.src = static_cast<endpoint::EndpointId>(std::stoul(row[0]));
    transfer.dst = static_cast<endpoint::EndpointId>(std::stoul(row[1]));
    transfer.bytes = std::stod(row[2]);
    transfer.files =
        row.size() > 3 ? static_cast<std::uint64_t>(std::stoull(row[3])) : 1;
    transfer.dirs =
        row.size() > 4 ? static_cast<std::uint64_t>(std::stoull(row[4])) : 1;
    transfer.concurrency =
        row.size() > 5 ? static_cast<std::uint32_t>(std::stoul(row[5])) : 4;
    transfer.parallelism =
        row.size() > 6 ? static_cast<std::uint32_t>(std::stoul(row[6])) : 4;
    planned.push_back(transfer);
  }
  if (planned.empty()) {
    std::fprintf(stderr, "error: no planned transfers in %s\n",
                 transfers_path->c_str());
    return 1;
  }

  const core::TransferPredictor predictor = acquire_predictor(args);
  // One grouped pass through the flattened batch engine; identical answers
  // to calling predict_rate_mbps per row.
  const auto rates = predictor.predict_rates_mbps(planned);

  if (const auto out_path = args.value("--out")) {
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return 1;
    }
    CsvWriter writer(out);
    writer.write_row(CsvRow{"src", "dst", "bytes", "rate_mbps", "duration_s"});
    char buffer[64];
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const double duration =
          planned[i].bytes / std::max(rates[i], 0.01) / 1e6;
      CsvRow row;
      row.push_back(std::to_string(planned[i].src));
      row.push_back(std::to_string(planned[i].dst));
      std::snprintf(buffer, sizeof buffer, "%.0f", planned[i].bytes);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof buffer, "%.17g", rates[i]);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof buffer, "%.17g", duration);
      row.push_back(buffer);
      writer.write_row(row);
    }
    std::printf("wrote %zu predictions to %s\n", planned.size(),
                out_path->c_str());
  } else {
    TextTable table;
    table.set_header({"src", "dst", "bytes", "rate MB/s", "duration s"});
    for (std::size_t i = 0; i < planned.size(); ++i)
      table.add_row({std::to_string(planned[i].src),
                     std::to_string(planned[i].dst),
                     format_bytes(planned[i].bytes),
                     TextTable::num(rates[i], 1),
                     TextTable::num(
                         planned[i].bytes / std::max(rates[i], 0.01) / 1e6,
                         0)});
    table.print(stdout);
  }
  return 0;
}

int cmd_export_dataset(const ArgList& args) {
  const auto log = load_log(args);
  const auto src = args.value("--src");
  const auto dst = args.value("--dst");
  if (!src || !dst) {
    std::fprintf(stderr, "error: --src and --dst are required\n");
    return 2;
  }
  const logs::EdgeKey edge{
      static_cast<endpoint::EndpointId>(parse_number("--src", *src)),
      static_cast<endpoint::EndpointId>(parse_number("--dst", *dst))};
  if (log.edge_count(edge) == 0) {
    std::fprintf(stderr, "error: edge %s->%s has no transfers\n", src->c_str(),
                 dst->c_str());
    return 1;
  }
  const auto contention = features::compute_contention(log);
  features::DatasetOptions options;
  options.load_threshold = args.number_or("--threshold", 0.5);
  options.include_nflt = args.flag("--with-nflt");
  const auto dataset = features::build_edge_dataset(log, contention, edge, options);

  const std::string out_path = args.value_or("--out", "dataset.csv");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  features::write_dataset_csv(dataset, out);
  std::printf("wrote %zu rows x %zu features to %s\n", dataset.rows(),
              dataset.cols(), out_path.c_str());
  return 0;
}

// Signal flags for the serve daemon: SIGINT/SIGTERM drain and exit,
// SIGHUP hot-reloads the model file.
volatile std::sig_atomic_t g_serve_stop = 0;
volatile std::sig_atomic_t g_serve_hup = 0;

void serve_stop_handler(int) { g_serve_stop = 1; }
void serve_hup_handler(int) { g_serve_hup = 1; }

/// Build the resident predictor for serve/serve-bench from --model (file)
/// or --log (train in-process).
std::shared_ptr<const core::TransferPredictor> acquire_shared_predictor(
    const ArgList& args, std::string& model_path_out) {
  model_path_out = args.value_or("--model", "");
  return std::make_shared<const core::TransferPredictor>(
      acquire_predictor(args));
}

serve::PredictionServer::Options server_options(const ArgList& args) {
  serve::PredictionServer::Options options;
  options.port = static_cast<std::uint16_t>(args.number_or("--port", 7070.0));
  options.bind_address = args.value_or("--bind", "127.0.0.1");
  options.max_batch =
      static_cast<std::size_t>(args.number_or("--max-batch", 64.0));
  options.queue_capacity =
      static_cast<std::size_t>(args.number_or("--queue-cap", 1024.0));
  options.shards =
      static_cast<std::size_t>(args.number_or("--shards", 0.0));
  options.partial_frame_timeout_ms = static_cast<std::uint64_t>(
      args.number_or("--frame-timeout-ms", 30000.0));
  options.monitor.drift_window = static_cast<std::size_t>(
      args.number_or("--drift-window", 64.0));
  options.monitor.drift_threshold_pct =
      args.number_or("--drift-threshold", 30.0);
  options.monitor.drift_min_samples = static_cast<std::size_t>(
      args.number_or("--drift-min-samples", 16.0));
  return options;
}

int cmd_serve(const ArgList& args) {
  std::string model_path;
  serve::ModelHost host(acquire_shared_predictor(args, model_path),
                        model_path);
  serve::PredictionServer server(host, server_options(args));

  // --journal-dir closes the drift loop: feedback -> journal -> refit ->
  // validated hot swap. The service installs its hooks before start().
  std::unique_ptr<retrain::RetrainService> retrain_service;
  if (const auto journal_dir = args.value("--journal-dir")) {
    retrain::TrainingJournal::Options journal_options;
    journal_options.directory = *journal_dir;
    retrain::RetrainOptions retrain_options;
    retrain_options.interval_ms = static_cast<std::uint64_t>(
        args.number_or("--retrain-interval", 0.0) * 1000.0);
    retrain_options.min_edge_records = static_cast<std::size_t>(
        args.number_or("--retrain-min-records", 64.0));
    const std::uint64_t interval_s = retrain_options.interval_ms / 1000;
    retrain_service = std::make_unique<retrain::RetrainService>(
        server, std::move(journal_options), std::move(retrain_options));
    if (interval_s == 0)
      std::printf("retrain loop enabled: journal %s, drift-alarm triggered\n",
                  journal_dir->c_str());
    else
      std::printf("retrain loop enabled: journal %s, every %llu s\n",
                  journal_dir->c_str(),
                  static_cast<unsigned long long>(interval_s));
  }

  // Handlers must be live before the startup banner goes out: a parent
  // scripting us through a pipe may signal the instant it sees the port,
  // and the default disposition would kill us without draining.
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGTERM, serve_stop_handler);
  std::signal(SIGHUP, serve_hup_handler);
  server.start();
  std::printf("serving predictions on %s:%u (SIGHUP reloads %s)\n",
              args.value_or("--bind", "127.0.0.1").c_str(), server.port(),
              model_path.empty() ? "<admin reload only>" : model_path.c_str());
  // Parents driving us through a pipe (the signal-drain test) need the
  // port line before the first request, not at buffer-flush time.
  std::fflush(stdout);

  while (!g_serve_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_serve_hup) {
      g_serve_hup = 0;
      try {
        const std::uint64_t version = host.reload_from_file();
        std::printf("SIGHUP: model reloaded (version %llu)\n",
                    static_cast<unsigned long long>(version));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "SIGHUP reload failed: %s\n", error.what());
      }
    }
  }
  std::printf("draining...\n");
  server.stop();
  std::printf("stopped.\n");
  return 0;
}

/// Prometheus metric name: "serve.batch.latency_us" -> "xfl_serve_batch_latency_us".
std::string prometheus_name(const std::string& name) {
  std::string out = "xfl_";
  for (const char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped or a
/// real scraper rejects (or silently mis-parses) the whole family.
std::string prometheus_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// HELP text: backslash and newline are the escapable characters there
/// (quotes are legal verbatim). Our help strings embed the dotted
/// registry name, which is caller-controlled, so escape defensively.
std::string prometheus_help_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Prometheus-style text exposition of a Registry::to_json() snapshot
/// (the "metrics" field of a stats reply): counters and gauges as-is,
/// histograms as cumulative _bucket/_sum/_count series plus quantile
/// lines extracted by the server's streaming estimator. Each family
/// carries # HELP and # TYPE headers and escaped label values, so the
/// dump is valid scrape input for a real Prometheus server, not just
/// eyeball output.
void print_prometheus(const serve::JsonValue& metrics) {
  const auto header = [](const std::string& prom, const std::string& name,
                         const char* type) {
    std::printf("# HELP %s %s\n# TYPE %s %s\n", prom.c_str(),
                prometheus_help_text("xferlearn registry metric " + name)
                    .c_str(),
                prom.c_str(), type);
  };
  if (const auto* counters = metrics.find("counters");
      counters && counters->is_object()) {
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number()) continue;
      const std::string prom = prometheus_name(name);
      header(prom, name, "counter");
      std::printf("%s %.0f\n", prom.c_str(), value.number);
    }
  }
  if (const auto* gauges = metrics.find("gauges");
      gauges && gauges->is_object()) {
    for (const auto& [name, entry] : gauges->object) {
      const auto* value = entry.find("value");
      if (value == nullptr || !value->is_number()) continue;
      const std::string prom = prometheus_name(name);
      header(prom, name, "gauge");
      std::printf("%s %.17g\n", prom.c_str(), value->number);
      if (const auto* max = entry.find("max"); max && max->is_number())
        std::printf("%s_max %.17g\n", prom.c_str(), max->number);
    }
  }
  if (const auto* histograms = metrics.find("histograms");
      histograms && histograms->is_object()) {
    for (const auto& [name, entry] : histograms->object) {
      const std::string prom = prometheus_name(name);
      header(prom, name, "histogram");
      double cumulative = 0.0;
      if (const auto* buckets = entry.find("buckets");
          buckets && buckets->is_array()) {
        for (const auto& bucket : buckets->array) {
          const auto* le = bucket.find("le");
          const auto* count = bucket.find("count");
          if (le == nullptr || count == nullptr || !count->is_number())
            continue;
          cumulative += count->number;
          std::string le_text = "+Inf";
          if (le->is_number()) {
            char text[64];
            std::snprintf(text, sizeof text, "%.17g", le->number);
            le_text = text;
          }
          std::printf("%s_bucket{le=\"%s\"} %.0f\n", prom.c_str(),
                      prometheus_label_value(le_text).c_str(), cumulative);
        }
      }
      if (const auto* sum = entry.find("sum"); sum && sum->is_number())
        std::printf("%s_sum %.17g\n", prom.c_str(), sum->number);
      if (const auto* count = entry.find("count"); count && count->is_number())
        std::printf("%s_count %.0f\n", prom.c_str(), count->number);
      const std::pair<const char*, const char*> quantiles[] = {
          {"p50", "0.5"}, {"p95", "0.95"}, {"p99", "0.99"}};
      for (const auto& [field, quantile] : quantiles) {
        if (const auto* q = entry.find(field); q && q->is_number())
          std::printf("%s{quantile=\"%s\"} %.17g\n", prom.c_str(),
                      prometheus_label_value(quantile).c_str(), q->number);
      }
    }
  }
}

int cmd_request(const ArgList& args) {
  const auto port_value = args.value("--port");
  if (!port_value) {
    std::fprintf(stderr, "error: --port is required\n");
    return 2;
  }
  serve::PredictionClient client(
      args.value_or("--host", "127.0.0.1"),
      static_cast<std::uint16_t>(parse_number("--port", *port_value)));

  if (args.flag("--ping")) {
    if (!client.ping()) {
      std::fprintf(stderr, "error: ping failed\n");
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (args.flag("--stats")) {
    const auto stats = client.stats(/*registry=*/true);
    const auto* depth = stats.find("queue_depth");
    const auto* version = stats.find("version");
    const auto* kernel = stats.find("kernel");
    const auto* requests = stats.find("requests");
    const auto* rejected = stats.find("rejected");
    std::printf("queue depth:   %.0f\nmodel version: %.0f\n"
                "kernel:        %s\n"
                "requests:      %.0f\nrejected:      %.0f\n",
                depth ? depth->number : -1.0, version ? version->number : -1.0,
                kernel && kernel->is_string() ? kernel->string.c_str()
                                              : "unknown",
                requests ? requests->number : -1.0,
                rejected ? rejected->number : -1.0);
    if (const auto* latency = stats.find("latency_us")) {
      if (const auto* server = latency->find("server")) {
        const auto* p50 = server->find("p50");
        const auto* p95 = server->find("p95");
        const auto* p99 = server->find("p99");
        std::printf("server latency: p50 %.0f us, p95 %.0f us, p99 %.0f us\n",
                    p50 ? p50->number : 0.0, p95 ? p95->number : 0.0,
                    p99 ? p99->number : 0.0);
      }
    }
    if (const auto* drift = stats.find("drift")) {
      const auto* alarm = drift->find("alarm");
      const auto* feedback = drift->find("feedback");
      const auto* threshold = drift->find("threshold_pct");
      std::printf("drift alarm:   %s (feedback %.0f, threshold %.1f%%)\n",
                  alarm && alarm->is_bool() && alarm->boolean ? "RAISED"
                                                              : "clear",
                  feedback ? feedback->number : 0.0,
                  threshold ? threshold->number : 0.0);
      if (const auto* shift = drift->find("attribution_shift")) {
        const auto* valid = shift->find("valid");
        const auto* ranked = shift->find("ranked");
        if (valid && valid->is_bool() && valid->boolean && ranked &&
            ranked->is_array() && !ranked->array.empty()) {
          const auto& top = ranked->array.front();
          const auto* feature = top.find("feature");
          const auto* delta = top.find("delta_mbps");
          std::printf("drift shift:   %s moved %+.1f MB/s mean "
                      "|contribution| at the last alarm\n",
                      feature && feature->is_string() ? feature->string.c_str()
                                                      : "?",
                      delta ? delta->number : 0.0);
        }
      }
    }
    if (const auto* metrics = stats.find("metrics")) {
      std::printf("-- prometheus --\n");
      print_prometheus(*metrics);
    }
    return 0;
  }
  if (args.flag("--retrain-status")) {
    const auto reply = client.retrain_status();
    const auto* retrain = reply.find("retrain");
    if (retrain == nullptr) {
      std::fprintf(stderr, "error: malformed retrain-status reply\n");
      return 1;
    }
    const auto* enabled = retrain->find("enabled");
    if (enabled == nullptr || !enabled->is_bool() || !enabled->boolean) {
      std::printf("retrain: disabled (serve without --journal-dir)\n");
      return 0;
    }
    const auto number = [retrain](const char* name) {
      const auto* value = retrain->find(name);
      return value != nullptr && value->is_number() ? value->number : 0.0;
    };
    const auto text = [retrain](const char* name) -> std::string {
      const auto* value = retrain->find(name);
      return value != nullptr && value->is_string() ? value->string : "";
    };
    std::printf("retrain: enabled, worker %s\n",
                [retrain] {
                  const auto* running = retrain->find("running");
                  return running != nullptr && running->is_bool() &&
                                 running->boolean
                             ? "running"
                             : "stopped";
                }());
    std::printf("cycles:        %.0f (alarm %.0f, interval %.0f, "
                "manual %.0f)\n",
                number("cycles"), number("triggers_alarm"),
                number("triggers_interval"), number("triggers_manual"));
    std::printf("refits:        %.0f (accepted %.0f, rejected %.0f, "
                "skipped %.0f, errors %.0f)\n",
                number("refits"), number("accepted"), number("rejected"),
                number("skipped"), number("errors"));
    const std::string decision = text("last_decision");
    if (!decision.empty())
      std::printf("last gate:     %s on edge %s (candidate MdAPE %.1f%% vs "
                  "incumbent %.1f%%), model version %.0f\n",
                  decision.c_str(), text("last_edge").c_str(),
                  number("last_candidate_mdape_pct"),
                  number("last_incumbent_mdape_pct"), number("last_version"));
    const std::string error = text("last_error");
    if (!error.empty()) std::printf("last error:    %s\n", error.c_str());
    return 0;
  }
  if (const auto trace = args.value("--feedback")) {
    const auto observed = args.value("--observed-mbps");
    if (!observed) {
      std::fprintf(stderr,
                   "error: --feedback requires --observed-mbps <rate>\n");
      return 2;
    }
    const auto reply =
        client.feedback(*trace, parse_number("--observed-mbps", *observed));
    if (!reply.ok) {
      std::fprintf(stderr, "error: feedback rejected\n");
      return 1;
    }
    if (!reply.matched) {
      std::printf("trace %s not found (evicted or already reported)\n",
                  trace->c_str());
      return 1;
    }
    std::printf("trace %s: predicted %.1f MB/s, observed %s MB/s, "
                "APE %.1f%%\n",
                trace->c_str(), reply.predicted_mbps, observed->c_str(),
                reply.ape_pct);
    std::printf("model version %llu: windowed MdAPE %.1f%% over %llu "
                "samples, drift alarm %s\n",
                static_cast<unsigned long long>(reply.model_version),
                reply.mdape_pct,
                static_cast<unsigned long long>(reply.window),
                reply.alarm ? "RAISED" : "clear");
    return 0;
  }
  if (args.flag("--reload")) {
    const std::uint64_t version = client.reload(args.value_or("--path", ""));
    std::printf("reloaded; model version %llu\n",
                static_cast<unsigned long long>(version));
    return 0;
  }

  const auto transfer = planned_transfer(args);
  if (!transfer) {
    std::fprintf(stderr,
                 "error: --src, --dst and --bytes are required (or use "
                 "--ping/--stats/--reload/--retrain-status)\n");
    return 2;
  }
  const core::PlannedTransfer& planned = *transfer;
  const auto deadline_ms =
      static_cast<std::uint64_t>(args.number_or("--deadline-ms", 0.0));

  const auto reply = client.predict(planned, {}, deadline_ms);
  if (!reply.ok) {
    std::fprintf(stderr, "error: %s: %s\n", reply.error.c_str(),
                 reply.message.c_str());
    return 1;
  }
  std::printf("predicted rate: %.1f MB/s (%s model, version %llu)\n",
              reply.rate_mbps, reply.model.c_str(),
              static_cast<unsigned long long>(reply.model_version));
  std::printf("predicted duration: %.0f s for %s\n",
              planned.bytes / mbps(reply.rate_mbps),
              format_bytes(planned.bytes).c_str());
  if (!reply.trace_id.empty())
    std::printf("trace id: %s (server %.3f ms; report the observed rate "
                "with `request --feedback %s --observed-mbps X`)\n",
                reply.trace_id.c_str(), reply.server_ms,
                reply.trace_id.c_str());
  return 0;
}

/// One explained prediction from a running server: rate plus the Saabas
/// per-feature attribution, printed so the sum structure is visible
/// (bias + contributions = raw score, clamped to the serving floor).
int cmd_explain(const ArgList& args) {
  const auto port_value = args.value("--port");
  const auto transfer = planned_transfer(args);
  if (!port_value || !transfer) {
    std::fprintf(stderr,
                 "error: --port, --src, --dst and --bytes are required\n");
    return 2;
  }
  const core::PlannedTransfer& planned = *transfer;
  serve::PredictionClient client(
      args.value_or("--host", "127.0.0.1"),
      static_cast<std::uint16_t>(parse_number("--port", *port_value)));
  if (args.flag("--binary")) client.negotiate_binary();

  const auto deadline_ms =
      static_cast<std::uint64_t>(args.number_or("--deadline-ms", 0.0));
  const auto top_k =
      static_cast<std::uint16_t>(args.number_or("--top-k", 0.0));

  const auto reply = client.explain(planned, {}, deadline_ms, top_k);
  if (!reply.ok) {
    std::fprintf(stderr, "error: %s: %s\n", reply.error.c_str(),
                 reply.message.c_str());
    return 1;
  }
  std::printf("predicted rate: %.1f MB/s (%s model, version %llu)\n",
              reply.rate_mbps, reply.model.c_str(),
              static_cast<unsigned long long>(reply.model_version));
  std::printf("raw score:      %.3f MB/s = bias %.3f + contributions\n",
              reply.raw_mbps, reply.bias_mbps);
  if (reply.low_mbps != 0.0 || reply.high_mbps != 0.0)
    std::printf("interval:       [%.1f, %.1f] MB/s\n", reply.low_mbps,
                reply.high_mbps);
  std::printf("contributions (MB/s, strongest first%s):\n",
              top_k > 0 ? ", truncated by --top-k" : "");
  double shown_sum = 0.0;
  for (const auto& [feature, mbps] : reply.contributions) {
    std::printf("  %+12.3f  %s\n", mbps, feature.c_str());
    shown_sum += mbps;
  }
  std::printf("  %+12.3f  (bias)\n", reply.bias_mbps);
  std::printf("  %+12.3f  (sum of shown terms)\n",
              shown_sum + reply.bias_mbps);
  if (!reply.trace_id.empty())
    std::printf("trace id: %s (server %.3f ms)\n", reply.trace_id.c_str(),
                reply.server_ms);
  return 0;
}

/// Loadgen: in-process server on an ephemeral port, C blocking clients per
/// level hammering it for --seconds, sustained req/s + latency quantiles.
int cmd_serve_bench(const ArgList& args) {
  std::string model_path;
  serve::ModelHost host(acquire_shared_predictor(args, model_path),
                        model_path);
  auto options = server_options(args);
  options.port = 0;  // Always ephemeral: the bench must not collide.
  serve::PredictionServer server(host, options);
  server.start();

  const double seconds = args.number_or("--seconds", 2.0);
  const auto src = static_cast<endpoint::EndpointId>(
      args.number_or("--src", 0.0));
  const auto dst = static_cast<endpoint::EndpointId>(
      args.number_or("--dst", 1.0));
  const std::size_t idle_connections =
      static_cast<std::size_t>(args.number_or("--connections", 0.0));
  const bool binary = args.flag("--binary");
  // Pipeline depth: requests kept outstanding per connection. 1 = classic
  // blocking round trips; >1 is how a real hot client drives the batcher
  // (many frames per syscall, full batches per predict call).
  const std::size_t pipeline = static_cast<std::size_t>(
      std::max(1.0, args.number_or("--pipeline", 1.0)));
  std::vector<std::size_t> levels;
  {
    const std::string spec = args.value_or("--clients", "1,4,16,64");
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::string token =
          spec.substr(start, comma == std::string::npos ? comma : comma - start);
      if (!token.empty())
        levels.push_back(
            static_cast<std::size_t>(parse_number("--clients", token)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (levels.empty()) {
      std::fprintf(stderr, "error: --clients needs at least one level\n");
      return 2;
    }
  }

  // A deterministic mix of planned transfers (sizes, file counts,
  // concurrency) so batches are not degenerate single-row repeats.
  std::vector<core::PlannedTransfer> mix;
  for (int i = 0; i < 16; ++i) {
    core::PlannedTransfer planned;
    planned.src = src;
    planned.dst = dst;
    planned.bytes = 1e9 * static_cast<double>(1 + (i * 7) % 50);
    planned.files = static_cast<std::uint64_t>(1 + (i * 13) % 40);
    planned.concurrency = static_cast<std::uint32_t>(1 + i % 8);
    planned.parallelism = static_cast<std::uint32_t>(1 + (i * 3) % 8);
    mix.push_back(planned);
  }

  struct LevelResult {
    std::size_t clients = 0;
    std::uint64_t requests = 0;
    double seconds = 0.0;
    double rps = 0.0;
    double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
    /// Server-side quantiles from the live serve.request.server_us
    /// histogram — the same estimator the stats admin command exposes.
    double server_p50_us = 0.0, server_p95_us = 0.0, server_p99_us = 0.0;
  };
  std::vector<LevelResult> results;

  // The idle-connection dimension: --connections N parks N extra open
  // sockets on the event loop for the whole run, so the measured levels
  // show what mostly-idle scale costs the hot path (it should be ~free).
  std::vector<std::unique_ptr<serve::PredictionClient>> idle;
  idle.reserve(idle_connections);
  for (std::size_t i = 0; i < idle_connections; ++i)
    idle.push_back(std::make_unique<serve::PredictionClient>(
        "127.0.0.1", server.port()));

  TextTable table;
  table.set_title("serve-bench: sustained load against the micro-batching "
                  "server (loopback; srv = server-side histogram quantiles)");
  table.set_header({"clients", "req/s", "p50 us", "p95 us", "p99 us",
                    "srv p50", "srv p95", "srv p99", "requests"});
  for (const std::size_t clients : levels) {
    // Zero the registry so each level's server-side histogram covers
    // exactly that level's requests.
    obs::Registry::instance().reset();
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto start = std::chrono::steady_clock::now();
    if (pipeline == 1) {
      // Classic mode: one blocking thread per client, one request in
      // flight each — directly comparable across bench revisions.
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          serve::PredictionClient client("127.0.0.1", server.port());
          if (binary) client.negotiate_binary();
          std::size_t i = c;  // Stagger the mix across clients.
          while (!stop.load(std::memory_order_relaxed)) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto reply = client.predict(mix[i++ % mix.size()]);
            const auto t1 = std::chrono::steady_clock::now();
            if (reply.ok)
              latencies[c].push_back(
                  std::chrono::duration<double, std::micro>(t1 - t0).count());
          }
        });
      }
    } else {
      // Windowed mode: every connection keeps `pipeline` requests in
      // flight, and a handful of loadgen threads multiplex all the
      // connections (wrk-style) — with one thread per connection the
      // measurement drowns in loadgen scheduling, not server capacity.
      struct WindowedConn {
        explicit WindowedConn(std::uint16_t port)
            : client("127.0.0.1", port) {}
        serve::PredictionClient client;
        std::unordered_map<std::uint64_t,
                           std::chrono::steady_clock::time_point>
            sent_at;
        std::uint64_t next_id = 1;
        std::size_t i = 0;
      };
      const std::size_t loadgen = std::min<std::size_t>(
          clients, std::max(2u, std::thread::hardware_concurrency()));
      for (std::size_t t = 0; t < loadgen; ++t) {
        threads.emplace_back([&, t] {
          // Each thread owns connections c = t, t + loadgen, ...
          std::vector<std::unique_ptr<WindowedConn>> conns;
          for (std::size_t c = t; c < clients; c += loadgen) {
            conns.push_back(std::make_unique<WindowedConn>(server.port()));
            conns.back()->i = c;
            if (binary) conns.back()->client.negotiate_binary();
          }
          // Sends are coalesced: `n` requests leave in one send(2), the
          // same trick the server's reply corking plays in the other
          // direction — on a shared core, loadgen syscalls are server
          // cycles lost.
          std::string out;
          const auto send_burst = [&](WindowedConn& conn, std::size_t n) {
            out.clear();
            const auto now = std::chrono::steady_clock::now();
            for (std::size_t k = 0; k < n; ++k) {
              const std::uint64_t id = conn.next_id++;
              conn.sent_at.emplace(id, now);
              const auto& planned = mix[conn.i++ % mix.size()];
              if (binary) {
                out += serve::binary_predict_request(id, planned);
              } else {
                out += serve::predict_request_line(std::to_string(id), planned);
              }
            }
            conn.client.send_raw(out);
          };
          const auto read_one = [&](WindowedConn& conn) {
            std::uint64_t id = 0;
            bool ok = false;
            if (binary) {
              for (;;) {
                const auto [type, payload] = conn.client.read_frame();
                if (type == serve::BinaryType::kJson) continue;
                const auto reply = serve::parse_binary_reply(type, payload);
                id = reply.id;
                ok = reply.ok;
                break;
              }
            } else {
              const auto reply = serve::PredictionClient::parse_reply(
                  conn.client.read_line());
              id = std::stoull(reply.id);
              ok = reply.ok;
            }
            const auto sent = conn.sent_at.find(id);
            if (sent == conn.sent_at.end()) return;
            if (ok)
              latencies[t].push_back(
                  std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - sent->second)
                      .count());
            conn.sent_at.erase(sent);
          };
          for (auto& conn : conns) send_burst(*conn, pipeline);
          while (!stop.load(std::memory_order_relaxed))
            for (auto& conn : conns) {
              // Block for one reply, drain whatever else the server's
              // corked flush delivered with it, then refill the window
              // with one write.
              read_one(*conn);
              std::size_t replies = 1;
              while (replies < pipeline && conn->client.response_buffered()) {
                read_one(*conn);
                ++replies;
              }
              send_burst(*conn, replies);
            }
          // Drain every window so all sent requests are accounted for
          // before the sockets close.
          for (auto& conn : conns)
            while (!conn->sent_at.empty()) read_one(*conn);
        });
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (auto& thread : threads) thread.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    std::vector<double> all;
    for (const auto& per_client : latencies)
      all.insert(all.end(), per_client.begin(), per_client.end());
    LevelResult result;
    result.clients = clients;
    result.requests = all.size();
    result.seconds = elapsed;
    result.rps = static_cast<double>(all.size()) / elapsed;
    if (!all.empty()) {
      result.p50_us = percentile(all, 50.0);
      result.p95_us = percentile(all, 95.0);
      result.p99_us = percentile(all, 99.0);
    }
    const auto server_snapshot =
        obs::histogram("serve.request.server_us").snapshot();
    result.server_p50_us = server_snapshot.quantile(50.0);
    result.server_p95_us = server_snapshot.quantile(95.0);
    result.server_p99_us = server_snapshot.quantile(99.0);
    results.push_back(result);
    table.add_row({std::to_string(clients), TextTable::num(result.rps, 0),
                   TextTable::num(result.p50_us, 0),
                   TextTable::num(result.p95_us, 0),
                   TextTable::num(result.p99_us, 0),
                   TextTable::num(result.server_p50_us, 0),
                   TextTable::num(result.server_p95_us, 0),
                   TextTable::num(result.server_p99_us, 0),
                   std::to_string(result.requests)});
  }
  idle.clear();
  server.stop();
  table.print(stdout);

  if (const auto out_path = args.value("--json-out")) {
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return 1;
    }
    out << "{\n  \"description\": \"xferlearn serve-bench: "
        << (pipeline == 1 ? "blocking request/reply clients"
                          : "multiplexed pipelined clients")
        << " over loopback TCP against the event-loop prediction server"
           " (max_batch=" << options.max_batch
        << ", queue_capacity=" << options.queue_capacity
        << "); latencies are per-request round trips in microseconds; "
           "server_* quantiles come from the in-server "
           "serve.request.server_us histogram (the live stats "
           "estimator)\",\n"
        << "  \"kernel\": \""
        << host.snapshot().predictor->serving_kernel() << "\",\n"
        << "  \"protocol\": \"" << (binary ? "binary" : "json") << "\",\n"
        << "  \"pipeline\": " << pipeline << ",\n"
        << "  \"idle_connections\": " << idle_connections << ",\n"
        << "  \"seconds_per_level\": " << seconds << ",\n  \"levels\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      char line[384];
      std::snprintf(line, sizeof line,
                    "    {\"clients\": %zu, \"requests\": %llu, "
                    "\"req_per_s\": %.1f, \"p50_us\": %.1f, "
                    "\"p95_us\": %.1f, \"p99_us\": %.1f, "
                    "\"server_p50_us\": %.1f, \"server_p95_us\": %.1f, "
                    "\"server_p99_us\": %.1f}%s\n",
                    r.clients, static_cast<unsigned long long>(r.requests),
                    r.rps, r.p50_us, r.p95_us, r.p99_us, r.server_p50_us,
                    r.server_p95_us, r.server_p99_us,
                    i + 1 < results.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", out_path->c_str());
  }
  return 0;
}

/// Flags every subcommand accepts: observability and --kernel.
constexpr std::string_view kGlobalFlags[] = {
    "--log-level", "--log-json", "--metrics-out", "--trace-out",
    "--print-metrics", "--kernel"};
/// The flags that take no value.
constexpr std::string_view kSwitches[] = {
    "--anonymize", "--with-nflt", "--ping", "--stats", "--reload",
    "--retrain-status", "--binary", "--log-json", "--print-metrics"};
/// acquire_predictor() and acquire_shared_predictor().
constexpr std::string_view kPredictorFlags[] = {"--model", "--log",
                                                "--min-edge-transfers"};
/// server_options().
constexpr std::string_view kServerFlags[] = {
    "--port", "--bind", "--max-batch", "--queue-cap", "--shards",
    "--frame-timeout-ms", "--drift-window", "--drift-threshold",
    "--drift-min-samples"};
/// One planned transfer.
constexpr std::string_view kTransferFlags[] = {
    "--src", "--dst", "--bytes", "--files", "--dirs", "--concurrency",
    "--parallelism"};

struct Command {
  std::string_view name;
  int (*run)(const ArgList&);
  std::vector<std::string_view> flags;  ///< Global flags included.
};

/// A command's own flags plus the shared groups it reads.
std::vector<std::string_view> flags(
    std::initializer_list<std::string_view> own,
    std::initializer_list<std::span<const std::string_view>> groups = {}) {
  std::vector<std::string_view> out(own);
  for (const auto group : groups)
    out.insert(out.end(), group.begin(), group.end());
  out.insert(out.end(), std::begin(kGlobalFlags), std::end(kGlobalFlags));
  return out;
}

const std::vector<Command> kCommands = {
    {"simulate", cmd_simulate,
     flags({"--scenario", "--seed", "--transfers", "--out", "--anonymize"})},
    {"analyze", cmd_analyze, flags({"--log", "--threshold"})},
    {"train", cmd_train,
     flags({"--log", "--model-out", "--min-edge-transfers"})},
    {"evaluate", cmd_evaluate,
     flags({"--log", "--max-edges", "--min-transfers"})},
    {"predict", cmd_predict, flags({}, {kPredictorFlags, kTransferFlags})},
    {"predict-batch", cmd_predict_batch,
     flags({"--transfers", "--out"}, {kPredictorFlags})},
    {"export-dataset", cmd_export_dataset,
     flags({"--log", "--src", "--dst", "--threshold", "--with-nflt",
            "--out"})},
    {"serve", cmd_serve,
     flags({"--journal-dir", "--retrain-interval", "--retrain-min-records"},
           {kPredictorFlags, kServerFlags})},
    {"request", cmd_request,
     flags({"--port", "--host", "--deadline-ms", "--ping", "--stats",
            "--reload", "--path", "--retrain-status", "--feedback",
            "--observed-mbps"},
           {kTransferFlags})},
    {"explain", cmd_explain,
     flags({"--port", "--host", "--deadline-ms", "--top-k", "--binary"},
           {kTransferFlags})},
    {"serve-bench", cmd_serve_bench,
     flags({"--clients", "--seconds", "--src", "--dst", "--connections",
            "--binary", "--pipeline", "--json-out"},
           {kPredictorFlags, kServerFlags})},
};

/// Apply --kernel: pins the process-wide batch-inference dispatch before
/// any model is compiled, overriding XFL_KERNEL. Returns false (after
/// printing the accepted names) on an unknown kernel.
bool setup_kernel(const ArgList& args) {
  const auto name = args.value("--kernel");
  if (!name) {
    // Resolve XFL_KERNEL now, so every subcommand warns about a bad value
    // even when it never reaches batch dispatch.
    ml::active_kernel();
    return true;
  }
  const auto kernel = ml::parse_kernel(*name);
  if (!kernel) {
    std::fprintf(stderr,
                 "error: bad --kernel '%s' (want auto|scalar|quantized)\n",
                 name->c_str());
    return false;
  }
  ml::set_active_kernel(*kernel);
  return true;
}

/// Install logging/tracing from the observability flags. Returns false on
/// an unparsable --log-level.
bool setup_observability(const ArgList& args) {
  obs::LogConfig config;
  if (const auto level = args.value("--log-level")) {
    if (!obs::parse_log_level(*level, config.min_level)) {
      std::fprintf(stderr,
                   "error: bad --log-level '%s' (want trace|debug|info|warn|"
                   "error|off)\n",
                   level->c_str());
      return false;
    }
  }
  config.json = args.flag("--log-json");
  obs::configure_logging(config);
  if (args.value("--trace-out")) obs::set_tracing_enabled(true);
  return true;
}

/// End-of-run metrics/trace dump. Runs even when the command failed — a
/// failing run is exactly when the counters are interesting.
int flush_observability(const ArgList& args, int rc) {
  if (const auto path = args.value("--metrics-out")) {
    std::ofstream out(*path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    } else {
      obs::Registry::instance().write_json(out);
      out << '\n';
    }
  }
  if (const auto path = args.value("--trace-out")) {
    std::ofstream out(*path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    } else {
      obs::write_chrome_trace(out);
    }
  }
  if (args.flag("--print-metrics")) {
    std::printf("-- metrics --\n");
    obs::Registry::instance().write_text(std::cout);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto entry =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const Command& c) { return c.name == command; });
  if (entry == kCommands.end()) return usage();
  const ArgList args(argc - 2, argv + 2);
  if (const auto problem = args.first_unknown(entry->flags, kSwitches)) {
    std::fprintf(stderr, "error: %s: %s\n", command.c_str(), problem->c_str());
    return 2;
  }
  if (!setup_observability(args)) return 2;
  if (!setup_kernel(args)) return 2;
  int rc;
  try {
    rc = entry->run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    XFL_LOG(error) << "command failed" << obs::kv("command", command)
                   << obs::kv("what", error.what());
    rc = 1;
  }
  return flush_observability(args, rc);
}
