#include "pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "ml/metrics.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Seeded split by record id, so the split does not depend on log order.
bool in_train_split(std::uint64_t seed, std::uint64_t record_id) {
  return unit_interval(mix64(mix64(seed) ^ record_id)) < kTrainFraction;
}

}  // namespace

double time_scenario_builds(int builds) {
  std::vector<double> seconds;
  for (int i = 0; i < builds; ++i) {
    const std::uint64_t t0 = now_ns();
    const auto scenario = xfl::sim::make_production();
    seconds.push_back(seconds_since(t0));
    if (scenario.workload.empty()) throw std::runtime_error("empty production workload");
  }
  return median(seconds);
}

bool reconstructs_exactly(const xfl::core::RateExplanation& explanation) {
  double sum = 0.0;
  for (const double c : explanation.contributions) sum += c;
  return same_bits(sum + explanation.bias_mbps, explanation.raw_mbps) &&
         same_bits(std::max(explanation.raw_mbps, 0.01), explanation.rate_mbps);
}

void put_pipeline_layers(const PipelineResult& r, Metrics& m) {
  m["sim.make_scenario_s"] = r.make_scenario_s;
  m["sim.run_s"] = r.sim_run_s;
  m["sim.events"] = static_cast<double>(r.sim_events);
  m["sim.events_per_s"] = static_cast<double>(r.sim_events) / r.sim_run_s;
  m["logs.write_csv_s"] = r.write_csv_s;
  m["logs.read_csv_s"] = r.read_csv_s;
  m["logs.records"] = static_cast<double>(r.records);
  m["core.analyze_log_s"] = r.analyze_s;
  m["core.fit_s"] = r.fit_s;
  m["core.fit_cpu_ratio"] = r.fit_cpu_ratio;
  m["core.edge_models"] = static_cast<double>(r.edge_models);
  m["core.save_s"] = r.save_s;
  m["core.load_s"] = r.load_s;
  m["core.predict_holdout_s"] = r.predict_holdout_s;
  m["core.explain_holdout_s"] = r.explain_holdout_s;
}

PipelineResult run_pipeline(std::uint64_t seed, const std::filesystem::path& workdir,
                            SpanRecorder& spans, int train_repeats) {
  namespace core = xfl::core;
  PipelineResult out;
  const auto log_path = workdir / "transfer_log.csv";
  const auto model_path = workdir / "model.txt";

  const double cpu0 = process_cpu_seconds();
  // ---- simulate job: make scenario + run + write_csv.
  {
    SpanRecorder::Scope job(spans, "pipeline.simulate");
    const std::uint64_t job_t0 = now_ns();
    xfl::sim::Scenario scenario;
    {
      SpanRecorder::Scope s(spans, "sim.make_scenario");
      const std::uint64_t t0 = now_ns();
      scenario = xfl::sim::make_production();
      out.make_scenario_s = seconds_since(t0);
    }
    xfl::sim::SimResult result;
    {
      SpanRecorder::Scope s(spans, "sim.run");
      const std::uint64_t t0 = now_ns();
      result = scenario.run();
      out.sim_run_s = seconds_since(t0);
    }
    out.sim_events = result.stats.events;
    {
      SpanRecorder::Scope s(spans, "logs.write_csv");
      const std::uint64_t t0 = now_ns();
      std::ofstream file(log_path);
      result.log.write_csv(file);
      file.close();
      if (!file) throw std::runtime_error("cannot write " + log_path.string());
      out.write_csv_s = seconds_since(t0);
    }
    out.simulate_s = seconds_since(job_t0);
  }

  const double simulate_cpu_s = process_cpu_seconds() - cpu0;

  // ---- train job: read_csv + split + analyze_log + fit + save_file,
  // repeated train_repeats times (the job is a fifth of the simulate
  // job's length, so one timing of it is at the mercy of a short stall).
  std::unique_ptr<core::TransferPredictor> trained;
  std::vector<double> train_s, train_cpu_s;
  for (int rep = 0; rep < train_repeats; ++rep) {
    SpanRecorder::Scope job(spans, "pipeline.train");
    const std::uint64_t job_t0 = now_ns();
    const double job_cpu0 = process_cpu_seconds();
    out.holdout.clear();
    {
      SpanRecorder::Scope s(spans, "logs.read_csv");
      const std::uint64_t t0 = now_ns();
      std::ifstream file(log_path);
      out.log = xfl::logs::LogStore::read_csv(file);
      out.read_csv_s = seconds_since(t0);
    }
    out.records = out.log.size();
    auto& train_log = out.train_log;
    {
      SpanRecorder::Scope s(spans, "logs.split");
      train_log = out.log.filter(
          [seed](const xfl::logs::TransferRecord& r) { return in_train_split(seed, r.id); });
      for (std::size_t i = 0; i < out.log.size(); ++i)
        if (!in_train_split(seed, out.log[i].id)) out.holdout.push_back(i);
    }
    {
      SpanRecorder::Scope s(spans, "core.analyze_log");
      const std::uint64_t t0 = now_ns();
      out.contention = core::analyze_log(out.log).contention;
      out.analyze_s = seconds_since(t0);
    }
    {
      SpanRecorder::Scope s(spans, "core.fit");
      const std::uint64_t t0 = now_ns();
      const double fit_cpu0 = process_cpu_seconds();
      trained = std::make_unique<core::TransferPredictor>();
      trained->fit(train_log);
      out.fit_s = seconds_since(t0);
      out.fit_cpu_ratio = (process_cpu_seconds() - fit_cpu0) / out.fit_s;
    }
    {
      SpanRecorder::Scope s(spans, "core.save");
      const std::uint64_t t0 = now_ns();
      trained->save_file(model_path.string());
      out.save_s = seconds_since(t0);
    }
    train_s.push_back(seconds_since(job_t0));
    train_cpu_s.push_back(process_cpu_seconds() - job_cpu0);
  }
  out.train_s = median(train_s);
  out.jobs_cpu_s = simulate_cpu_s + median(train_cpu_s);

  // ---- load, then serve the holdout in-process.
  {
    SpanRecorder::Scope s(spans, "core.load");
    const std::uint64_t t0 = now_ns();
    out.model = std::make_shared<const core::TransferPredictor>(
        core::TransferPredictor::load_file(model_path.string()));
    out.load_s = seconds_since(t0);
  }
  for (const std::size_t i : out.holdout) {
    const auto& r = out.log[i];
    core::PlannedTransfer t;
    t.src = r.src;
    t.dst = r.dst;
    t.bytes = r.bytes;
    t.files = r.files;
    t.dirs = r.dirs;
    t.concurrency = r.concurrency;
    t.parallelism = r.parallelism;
    out.holdout_transfers.push_back(t);
    out.holdout_loads.push_back(out.contention[i]);
  }
  std::vector<double> served;
  {
    SpanRecorder::Scope s(spans, "core.predict_holdout");
    const std::uint64_t t0 = now_ns();
    served = out.model->predict_rates_mbps(out.holdout_transfers, out.holdout_loads);
    out.predict_holdout_s = seconds_since(t0);
  }
  std::vector<core::RateExplanation> explained;
  {
    SpanRecorder::Scope s(spans, "core.explain_holdout");
    const std::uint64_t t0 = now_ns();
    explained = out.model->explain_rates_mbps(out.holdout_transfers, out.holdout_loads);
    out.explain_holdout_s = seconds_since(t0);
  }
  {
    SpanRecorder::Scope s(spans, "bench.check_holdout");
    const auto in_memory = trained->predict_rates_mbps(out.holdout_transfers, out.holdout_loads);
    std::vector<double> actual;
    for (std::size_t k = 0; k < out.holdout.size(); ++k) {
      actual.push_back(xfl::to_mbps(out.log[out.holdout[k]].rate_Bps()));
      out.checks += 2;
      if (!same_bits(served[k], in_memory[k])) ++out.failures;
      if (!same_bits(explained[k].rate_mbps, served[k]) || !reconstructs_exactly(explained[k]))
        ++out.failures;
    }
    out.holdout_mdape_pct = xfl::ml::mdape(actual, served);
  }
  out.edge_models = 0;
  for (const auto& edge : out.log.edges_by_usage())
    if (out.model->has_edge_model(edge)) ++out.edge_models;
  out.kernel = out.model->serving_kernel();
  return out;
}

}  // namespace perfbench
