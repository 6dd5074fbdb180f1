// google-benchmark microbenchmarks for the performance-critical substrate:
// the max-min flow solver (hot path of every simulation event), the
// contention sweep (feature engineering over the full log), gradient
// boosting training, and MIC estimation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "features/contention.hpp"
#include "logs/log_store.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"
#include "ml/mic.hpp"
#include "sim/resources.hpp"

namespace {

using namespace xfl;

// Arg 0: flow count. Arg 1: shape. 0 = every flow crosses 6 of 64
// resources; 1 = the production simulator's solves (474 resources, two
// thirds of the flows single-resource background load, the rest transfers
// crossing 7 resources, ~1.9 uses per flow).
void BM_MaxMinAllocate(benchmark::State& state) {
  const auto flow_count = static_cast<std::size_t>(state.range(0));
  const bool sim_shape = state.range(1) == 1;
  const int resource_count = sim_shape ? 474 : 64;
  Rng rng(1);
  sim::ResourcePool pool;
  for (int r = 0; r < resource_count; ++r)
    pool.add("r" + std::to_string(r), rng.uniform(1e8, 2e9));
  auto any_resource = [&rng, resource_count]() {
    return static_cast<sim::ResourceId>(rng.uniform_int(0, resource_count - 1));
  };
  std::vector<sim::FlowSpec> flows(flow_count);
  for (std::size_t f = 0; f < flow_count; ++f) {
    auto& flow = flows[f];
    const int uses = !sim_shape ? 6 : f % 3 == 0 ? 7 : 1;
    for (int u = 0; u < uses; ++u)
      flow.usage.push_back({any_resource(), rng.uniform(1.0, 16.0), 1.0});
    flow.cap_Bps = rng.uniform(1e7, 2e9);
  }
  for (auto _ : state) {
    auto rates = sim::maxmin_allocate(pool, flows);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flow_count));
}
BENCHMARK(BM_MaxMinAllocate)
    ->ArgNames({"flows", "sim_shape"})
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({60, 1});

logs::LogStore synthetic_log(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  logs::LogStore log;
  for (std::size_t i = 0; i < n; ++i) {
    logs::TransferRecord r;
    r.id = i + 1;
    r.src = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    r.dst = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    if (r.dst == r.src) r.dst = (r.src + 1) % 20;
    r.start_s = rng.uniform(0.0, 1.0e6);
    r.end_s = r.start_s + rng.uniform(10.0, 2000.0);
    r.bytes = rng.lognormal(23.0, 2.0);
    r.files = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 500));
    r.dirs = 1;
    r.concurrency = 4;
    r.parallelism = 4;
    log.append(r);
  }
  return log;
}

// Arg 0: record count; arg 1: sweep threads (0 = hardware concurrency,
// 1 = serial). Results are bit-identical across thread counts.
void BM_ContentionSweep(benchmark::State& state) {
  const auto log = synthetic_log(static_cast<std::size_t>(state.range(0)), 2);
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto features = features::compute_contention(log, threads);
    benchmark::DoNotOptimize(features);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentionSweep)
    ->Args({1000, 1})
    ->Args({5000, 1})
    ->Args({20000, 1})
    ->Args({20000, 0});

// Arg: training rows. The fit is serial.
void BM_GbtTrain(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  ml::Matrix x(rows, 15);
  std::vector<double> y(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 0) * x.at(i, 0) + 2.0 * x.at(i, 5) + rng.normal(0.0, 0.1);
  }
  ml::GbtConfig config;
  config.trees = 100;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(config);
    model.fit(x, y);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbtTrain)->Arg(500)->Arg(2000);

// Serving-path engines on the same fitted model (default config: 200
// trees, depth 4) and the same 2000-row batch. Arg 0 selects the engine:
//   1 = per-row flattened walk (predict routed through the FlatEnsemble),
//   2 = flattened row-blocked batch engine, serial,
//   3 = flattened batch engine over a hardware-concurrency pool.
// All three produce bit-identical outputs (pinned by the tier-2
// equivalence suite), so the times are directly comparable; speedups are
// recorded in BENCH_predict.json.
void BM_GbtPredict(benchmark::State& state) {
  Rng rng(4);
  ml::Matrix x(2000, 15);
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 2) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model;
  model.fit(x, y);
  const int engine = static_cast<int>(state.range(0));
  std::vector<double> out(x.rows());
  std::unique_ptr<ThreadPool> pool;
  if (engine == 3) pool = std::make_unique<ThreadPool>();
  for (auto _ : state) {
    switch (engine) {
      case 1:
        for (std::size_t r = 0; r < x.rows(); ++r)
          out[r] = model.predict(x.row(r));
        break;
      case 2:
        model.predict_batch(x, out);
        break;
      default:
        model.predict_batch(x, out, pool.get());
        break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredict)->Arg(1)->Arg(2)->Arg(3);

// Kernel ablation on the BM_GbtPredict workload: arg 0 is the forced
// ml::Kernel (1 = scalar, 3 = quantized), arg 1 selects serial (0) or a
// hardware-concurrency pool (1). A row whose kernel would degrade is
// skipped rather than silently measuring the fallback; every runnable row
// is bit-identical to BM_GbtPredict/2, so the times are directly
// comparable.
void BM_GbtPredictKernel(benchmark::State& state) {
  Rng rng(4);
  ml::Matrix x(2000, 15);
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 2) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model;
  model.fit(x, y);
  const auto kernel = static_cast<ml::Kernel>(state.range(0));
  if (model.flat().effective_kernel(kernel) != kernel) {
    state.SkipWithError("kernel unavailable on this host/build");
    return;
  }
  std::unique_ptr<ThreadPool> pool;
  if (state.range(1) != 0) pool = std::make_unique<ThreadPool>();
  std::vector<double> out(x.rows());
  for (auto _ : state) {
    model.flat().predict_batch(x, out, pool.get(), kernel);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(ml::kernel_name(kernel));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictKernel)
    ->ArgNames({"kernel", "pool"})
    ->Args({1, 0})
    ->Args({3, 0})
    ->Args({1, 1})
    ->Args({3, 1});

// Serial batch prediction of a 20000-row matrix (predict(const Matrix&)).
void BM_GbtPredictBatch(benchmark::State& state) {
  Rng rng(4);
  ml::Matrix x(20000, 15);
  std::vector<double> y(20000);
  for (std::size_t i = 0; i < 20000; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 2) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model;
  model.fit(x, y);
  for (auto _ : state) {
    auto out = model.predict(x);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_GbtPredictBatch);

void BM_Mic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = x[i] * x[i] + rng.normal(0.0, 0.1);
  }
  for (auto _ : state) benchmark::DoNotOptimize(ml::mic(x, y));
}
BENCHMARK(BM_Mic)->Arg(250)->Arg(1000);

}  // namespace

// BENCHMARK_MAIN plus a --kernel {auto,scalar,quantized} flag: forces
// the process-wide default kernel (the same lever as XFL_KERNEL) before
// any benchmark runs, so the non-kernel rows can be A/B-ed too.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--kernel=", 9) == 0) {
      const auto kernel = xfl::ml::parse_kernel(arg + 9);
      if (!kernel) {
        std::fprintf(stderr,
                     "unknown --kernel value '%s' "
                     "(want auto|scalar|quantized)\n",
                     arg + 9);
        return 1;
      }
      xfl::ml::set_active_kernel(*kernel);
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
