// serve_binary_predict and serve_json_mixed: the offline pipeline's model
// behind an in-process PredictionServer, driven by the open-loop
// generator. Set-up runs the pipeline (so simulate_s, train_s and the
// held-out MdAPE are reported here too), starts the server and warms it.
// The measured phase is the reference rate, repeated, then a bisection
// over the fixed rate ladder.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "retrain/journal.hpp"
#include "retrain/retrainer.hpp"
#include "serve/client.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = xfl::serve;

/// Requests drawn from log records on the model's edges (so edges come
/// with the log's usage skew, and sizes, files, dirs, C, P and the
/// expected load with the log's own distributions); a fixed share moves
/// to an endpoint pair the log never saw, which the global model serves.
RequestPool build_pool(const PipelineResult& r, std::uint64_t seed) {
  std::vector<std::size_t> modelled;
  std::vector<xfl::endpoint::EndpointId> endpoints;
  for (std::size_t i = 0; i < r.log.size(); ++i) {
    if (r.model->has_edge_model(r.log[i].edge())) modelled.push_back(i);
    endpoints.push_back(r.log[i].src);
    endpoints.push_back(r.log[i].dst);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()), endpoints.end());
  if (modelled.empty() || endpoints.size() < 2)
    throw std::runtime_error("request pool: the model has no edge models");

  RequestPool pool;
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    const std::uint64_t h = mix64(mix64(seed) ^ k);
    const auto& record = r.log[modelled[h % modelled.size()]];
    xfl::core::PlannedTransfer t;
    t.src = record.src;
    t.dst = record.dst;
    t.bytes = record.bytes;
    t.files = record.files;
    t.dirs = record.dirs;
    t.concurrency = record.concurrency;
    t.parallelism = record.parallelism;
    if (unit_interval(mix64(h)) < kUnseenEdgeShare) {
      std::uint64_t g = mix64(h ^ 0x5eedULL);
      do {
        t.src = endpoints[g % endpoints.size()];
        t.dst = endpoints[(g >> 32) % endpoints.size()];
        g = mix64(g);
      } while (t.src == t.dst || r.log.edge_count({t.src, t.dst}) > 0);
      ++pool.unseen;
    }
    pool.transfers.push_back(t);
    pool.loads.push_back(r.contention[static_cast<std::size_t>(&record - r.log.records().data())]);
  }
  pool.rates = r.model->predict_rates_mbps(pool.transfers, pool.loads);
  pool.explanations = r.model->explain_rates_mbps(pool.transfers, pool.loads);
  return pool;
}

/// Registry readings taken between phases, as any outside reader would.
struct RegistryMark {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, xfl::obs::Histogram::Snapshot> histograms;
};

constexpr const char* kCounters[] = {
    "serve.request.count",    "serve.batch.rows",          "serve.batch.count",
    "serve.request.overloaded", "serve.request.timeout",   "serve.batch.explain_rows",
    "serve.feedback.count",   "serve.feedback.unmatched",  "serve.drift.alarms",
    "retrain.journal.appended"};
constexpr const char* kHistograms[] = {"serve.request.server_us", "serve.batch.latency_us",
                                       "serve.request.parse_us"};

RegistryMark mark() {
  RegistryMark m;
  for (const char* name : kCounters) m.counters[name] = xfl::obs::counter(name).value();
  for (const char* name : kHistograms) m.histograms[name] = xfl::obs::histogram(name).snapshot();
  return m;
}

struct RegistryDelta {
  RegistryMark from, to;
  double counter(const char* name) const {
    return static_cast<double>(to.counters.at(name) - from.counters.at(name));
  }
  double quantile(const char* name, double p) const {
    auto delta = to.histograms.at(name);
    const auto& base = from.histograms.at(name);
    for (std::size_t b = 0; b < delta.counts.size() && b < base.counts.size(); ++b)
      delta.counts[b] -= base.counts[b];
    delta.count -= base.count;
    return delta.quantile(p);
  }
};

/// Block until the server has stopped working off earlier load: an
/// overloaded rung leaves requests queued for connections the generator
/// already closed (predicts in the batcher, feedback joins and journal
/// fsyncs on the poll thread), and the next rung must not pay for them.
void wait_until_idle() {
  const auto activity = [] {
    return xfl::obs::counter("serve.request.count").value() +
           xfl::obs::counter("serve.request.feedback").value() +
           xfl::obs::counter("serve.batch.rows").value();
  };
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  std::uint64_t seen = activity();
  while (now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = activity();
    if (now == seen) return;
    seen = now;
  }
}

struct Phase {
  std::vector<LoadResult> runs;
  RegistryDelta registry;
};

LoadConfig load_config(const ServeProfile& profile, const RunContext& context,
                       std::uint16_t port, double rate, double seconds, std::uint64_t salt) {
  LoadConfig c;
  c.binary = profile.binary;
  c.rate = rate;
  c.seconds = seconds;
  c.explain_share = profile.explain_share;
  c.feedback_share = profile.feedback_share;
  c.seed = mix64(context.seed ^ mix64(salt));
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  c.connections = std::min(kConnections, cores);
  c.threads = std::min({kLoadgenThreads, c.connections, cores});
  c.port = port;
  return c;
}

RungLimits limits_for(const ServeProfile& profile, const LoadConfig& config) {
  RungLimits limits;
  limits.p90_limit_us = profile.p90_limit_us;
  limits.late_limit_us = kLateShareOfLimit * profile.p90_limit_us;
  // One full batch per connection may be in flight without a backlog.
  limits.backlog_slack = config.connections * serve::PredictionServer::Options{}.max_batch;
  return limits;
}

/// Process CPU per answered request over a load run, the generator
/// threads' own CPU left out: the server's cost per request.
double server_cpu_us_per_req(const LoadResult& r) {
  return (r.process_cpu_s - r.loadgen_cpu_s) * 1e6 / std::max(1.0, static_cast<double>(r.rung.ok));
}

std::string rung_json(const LoadResult& r, const RungLimits& limits) {
  JsonObject o;
  o.num("rate", r.rung.rate).num("sent", static_cast<double>(r.rung.sent))
      .num("ok", static_cast<double>(r.rung.ok))
      .num("rejected", static_cast<double>(r.rung.rejected))
      .num("errors", static_cast<double>(r.rung.errors))
      .num("p50_us", r.rung.p50_us).num("p90_us", r.rung.p90_us).num("p99_us", r.rung.p99_us)
      .num("late_p90_us", r.rung.late_p90_us).num("late_p99_us", r.rung.late_p99_us)
      .num("outstanding_mid", static_cast<double>(r.rung.outstanding_mid))
      .num("outstanding_end", static_cast<double>(r.rung.outstanding_end))
      .num("server_cpu_us_per_req", server_cpu_us_per_req(r))
      .str("verdict", to_string(judge_rung(r.rung, limits)));
  const auto tail = supported_tail(r.latencies_us);
  if (tail) o.num("tail_pct", tail->pct).num("tail_us", tail->value);
  return o.text();
}

/// Direct codec round trips on the pool: encode request -> parse ->
/// build reply -> parse reply, nanoseconds per request (median of reps).
double protocol_roundtrip_ns(const RequestPool& pool, bool binary) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < pool.transfers.size(); ++k) {
      if (binary) {
        const auto wire = serve::binary_predict_request(k, pool.transfers[k], pool.loads[k]);
        const auto frame = serve::decode_binary_frame(wire);
        const auto request = serve::parse_binary_predict(frame.payload);
        const auto reply_wire = serve::binary_predict_response(
            request.predict.binary_id, pool.rates[k], true, 1, k, 0.1);
        const auto reply_frame = serve::decode_binary_frame(reply_wire);
        serve::parse_binary_reply(reply_frame.type, reply_frame.payload);
      } else {
        const auto line = serve::predict_request_line(std::to_string(k), pool.transfers[k],
                                                      pool.loads[k]);
        const auto frame = serve::parse_frame(line);
        const auto reply = serve::predict_response(frame.id, pool.rates[k], true, 1, k, 0.1);
        serve::PredictionClient::parse_reply(reply);
      }
    }
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(pool.transfers.size()));
  }
  return median(reps);
}

/// Direct batched predict / explain at a given batch size, microseconds
/// per row (median of reps over the pool).
template <typename Call>
double batch_us_per_row(const RequestPool& pool, std::size_t batch, Call&& call) {
  batch = std::clamp<std::size_t>(batch, 1, pool.transfers.size());
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    std::size_t rows = 0;
    for (std::size_t k = 0; k + batch <= pool.transfers.size(); k += batch) {
      call(std::span(pool.transfers).subspan(k, batch), std::span(pool.loads).subspan(k, batch));
      rows += batch;
    }
    reps.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(rows));
  }
  return median(reps);
}

/// TrainingJournal::append timed directly on the records the run
/// journalled, replayed into a fresh directory; microseconds per append.
double journal_append_us(const std::filesystem::path& journal_dir,
                         const std::filesystem::path& replay_dir) {
  const auto loaded = xfl::retrain::TrainingJournal::load(journal_dir.string());
  if (loaded.records.empty()) return 0.0;
  xfl::retrain::TrainingJournal::Options options;
  options.directory = replay_dir.string();
  xfl::retrain::TrainingJournal journal(options);
  const std::uint64_t t0 = now_ns();
  for (const auto& record : loaded.records) journal.append(record);
  return static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(loaded.records.size());
}

}  // namespace

Outcome run_serve(const ServeProfile& profile, const RunContext& context) {
  Outcome out;
  SpanRecorder& spans = *context.spans;

  // ---- set-up: pipeline, request pool, server, warm-up.
  const std::uint64_t setup0 = now_ns();
  PipelineResult pipeline = run_pipeline(context.seed, context.workdir, spans, kTrainRepeats);
  record_pipeline(pipeline, out);
  RequestPool pool;
  {
    SpanRecorder::Scope s(spans, "bench.request_pool");
    pool = build_pool(pipeline, context.seed);
  }
  serve::ModelHost host(pipeline.model);
  serve::PredictionServer::Options server_options;
  server_options.queue_capacity = kQueueCapacity;
  serve::PredictionServer server(host, server_options);
  const auto journal_dir = context.workdir / "journal";
  std::optional<xfl::retrain::RetrainService> retrain;
  if (profile.journal) {
    xfl::retrain::TrainingJournal::Options journal_options;
    journal_options.directory = journal_dir.string();
    retrain.emplace(server, journal_options, xfl::retrain::RetrainOptions{});
  }
  // Declared after the retrain service, so on every exit path the server
  // stops (and calls no more feedback hooks) before the journal goes.
  struct StopServer {
    serve::PredictionServer& server;
    ~StopServer() { server.stop(); }
  } stop_server{server};
  {
    SpanRecorder::Scope s(spans, "serve.start");
    server.start();
  }
  const auto run_phase = [&](const char* span, double rate, double seconds, std::uint64_t salt) {
    SpanRecorder::Scope s(spans, span);
    wait_until_idle();
    return run_open_loop(load_config(profile, context, server.port(), rate, seconds, salt), pool);
  };
  const LoadResult warmup = run_phase("serve.warmup", profile.reference_rps, 1.0, 0);
  const double setup_s = seconds_since(setup0);
  const RegistryMark start_mark = mark();

  // ---- measured phase: the reference rate, repeated, and the ladder.
  const double reference_s = kReferenceShare * context.seconds / kReferenceRepeats;
  const LoadConfig reference_config =
      load_config(profile, context, server.port(), profile.reference_rps, reference_s, 0);
  const RungLimits limits = limits_for(profile, reference_config);
  const auto rungs = ladder(profile);
  // Budget: one measurement per bisection step plus two repeats.
  const double probe_s = (1.0 - kReferenceShare) * context.seconds /
                         (std::ceil(std::log2(static_cast<double>(rungs.size()) + 1.0)) + 2.0);
  Phase reference;
  std::vector<LoadResult> probes;
  const auto probe = [&](std::size_t i) {
    probes.push_back(run_phase("serve.ladder_probe", rungs[i], probe_s, 1000 + i));
    return probes.back().rung;
  };
  const auto reference_run = [&](std::uint64_t salt) {
    return run_phase("serve.reference", profile.reference_rps, reference_s, salt);
  };
  const auto p50_median = [](const std::vector<LoadResult>& runs) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.rung.p50_us);
    return median(v);
  };
  std::vector<RungResult> probed;
  std::vector<LoadResult> plain;  // Traced run: the untraced reference repeats.
  double rss_mb = 0.0;
  if (context.trace) {
    // An untraced pass, then the traced reference repeats back to back so
    // the registry delta around them covers the reference rate alone.
    spans.set_enabled(false);
    for (int rep = 0; rep < kReferenceRepeats; ++rep) plain.push_back(reference_run(100 + rep));
    spans.set_enabled(true);
    reference.registry.from = mark();
    out.window_start_ns = now_ns();
    for (int rep = 0; rep < kReferenceRepeats; ++rep)
      reference.runs.push_back(reference_run(200 + rep));
    out.window_end_ns = now_ns();
    reference.registry.to = mark();
    out.overhead_ratio = p50_median(reference.runs) / p50_median(plain);
    probed = bisect_ladder(rungs, limits, probe);
  } else {
    // Reference repeats alternate with the ladder's probes, so a stretch
    // of host noise covering part of the run spoils only some repeats.
    probed = bisect_ladder(rungs, limits, [&](std::size_t i) {
      if (reference.runs.size() < kReferenceRepeats) {
        reference.runs.push_back(reference_run(200 + reference.runs.size()));
        // Peak RSS of set-up and the reference rate, before any probe:
        // overloaded probes add generator arrays and server backlog that
        // depend on which rungs the bisection happened to visit.
        if (reference.runs.size() == 1) rss_mb = peak_rss_mb();
      }
      return probe(i);
    });
    while (reference.runs.size() < kReferenceRepeats)
      reference.runs.push_back(reference_run(200 + reference.runs.size()));
  }
  const RegistryDelta whole{start_mark, mark()};

  // ---- per-layer direct calls (traced run).
  auto& m = out.metrics;
  if (context.trace) {
    const double batch_mean = reference.registry.counter("serve.batch.rows") /
                              std::max(1.0, reference.registry.counter("serve.batch.count"));
    m["serve.batch_rows_mean"] = batch_mean;
    put_pipeline_layers(pipeline, m);
    const auto batch = static_cast<std::size_t>(std::llround(batch_mean));
    {
      SpanRecorder::Scope s(spans, "core.predict_batch");
      m["core.predict_batch_us_per_row"] = batch_us_per_row(pool, batch, [&](auto t, auto l) {
        return pipeline.model->predict_rates_mbps(t, l);
      });
    }
    {
      SpanRecorder::Scope s(spans, "core.explain_batch");
      m["core.explain_batch_us_per_row"] = batch_us_per_row(pool, batch, [&](auto t, auto l) {
        return pipeline.model->explain_rates_mbps(t, l);
      });
    }
    {
      SpanRecorder::Scope s(spans, "serve.protocol");
      m["serve.protocol.binary_roundtrip_ns"] = protocol_roundtrip_ns(pool, true);
      m["serve.protocol.json_roundtrip_ns"] = protocol_roundtrip_ns(pool, false);
    }
  }

  server.stop();

  // ---- checks over every load run. A reply that differs from the direct
  // call, any error reply other than overloaded/timeout, an unparseable
  // reply or a reply to no outstanding request is a wrong output on every
  // run. At the reference rate (warm-up included) every request must also
  // be answered. An overloaded/timeout rejection in a measured reference
  // run counts as a failed op, not as a wrong output (a host stall can fill
  // the admission queues). The warm-up absorbs the cold start: right after
  // the single-threaded pipeline the host can take most of a second to run
  // every server and generator thread (on a shared 4-vCPU host the
  // generator itself has run 5 ms late at p90 there). On ladder probes
  // above capacity, rejections and unanswered requests are the capacity
  // signal. Neither counts rejections as failed ops.
  std::uint64_t predicts = 0, explains = 0, feedbacks = 0, matched = 0, deferred = 0;
  std::uint64_t checked = 0, mismatches = 0, bad_replies = 0, lost_at_reference = 0;
  const auto tally = [&](const LoadResult& r, bool at_reference, bool rejections_fail) {
    const std::uint64_t bad = r.rung.errors - r.lost;
    out.attempted += r.scheduled;
    out.failed += r.mismatches + bad + (at_reference ? r.lost : 0) +
                  (rejections_fail ? r.rung.rejected : 0);
    checked += r.checked;
    mismatches += r.mismatches;
    bad_replies += bad;
    if (at_reference) lost_at_reference += r.lost;
    predicts += r.predicts;
    explains += r.explains;
    feedbacks += r.feedbacks;
    matched += r.feedback_matched;
    deferred += r.feedback_deferred;
  };
  tally(warmup, true, false);
  for (const auto& r : plain) tally(r, true, true);
  for (const auto& r : reference.runs) tally(r, true, true);
  for (const auto& r : probes) tally(r, false, false);
  if (mismatches > 0) out.problems.push_back("served replies differ from direct predictor calls");
  if (bad_replies > 0)
    out.problems.push_back("error replies other than overloaded/timeout, or unparseable replies");
  if (lost_at_reference > 0)
    out.problems.push_back("requests at the reference rate were never answered");
  const double alarms = whole.counter("serve.drift.alarms");
  if (alarms > 0)
    out.problems.push_back("drift alarm raised: the model may have swapped mid-run");
  if (host.version() != 1) out.problems.push_back("served model version changed mid-run");

  // Client-side latency at the reference rate (timed from each request's
  // scheduled send), the sustained rate, and server CPU per request.
  std::vector<double> p50, p90, p99, late, cpu_us_per_req;
  double loadgen_cpu = 0.0, process_cpu = 0.0, wall = 0.0, ref_sent = 0.0;
  for (const auto& r : reference.runs) {
    p50.push_back(r.rung.p50_us);
    p90.push_back(r.rung.p90_us);
    p99.push_back(r.rung.p99_us);
    late.push_back(r.rung.late_p99_us);
    cpu_us_per_req.push_back(server_cpu_us_per_req(r));
    loadgen_cpu += r.loadgen_cpu_s;
    process_cpu += r.process_cpu_s;
    wall += r.wall_s;
    ref_sent += static_cast<double>(r.rung.sent);
  }
  const double sustained = sustained_rate(probed, limits);

  if (context.trace) {
    const auto& d = reference.registry;
    m["serve.server_p50_us"] = d.quantile("serve.request.server_us", 50.0);
    m["serve.server_p99_us"] = d.quantile("serve.request.server_us", 99.0);
    m["serve.batch_latency_p99_us"] = d.quantile("serve.batch.latency_us", 99.0);
    m["serve.parse_p50_us"] = d.quantile("serve.request.parse_us", 50.0);
    m["serve.overloaded"] = d.counter("serve.request.overloaded");
    m["serve.timeouts"] = d.counter("serve.request.timeout");
    m["serve.explain_rows"] = d.counter("serve.batch.explain_rows");
    const double fed = d.counter("serve.feedback.count");
    m["serve.feedback_match_ratio"] =
        fed > 0 ? 1.0 - d.counter("serve.feedback.unmatched") / fed : 0.0;
    m["serve.drift_alarms"] = alarms;
    m["retrain.journal_appends"] = d.counter("retrain.journal.appended");
    if (profile.journal) {
      SpanRecorder::Scope s(spans, "retrain.journal_append");
      m["retrain.journal_append_us"] =
          journal_append_us(journal_dir, context.workdir / "journal_replay");
    }
    m["proc.cpu_ratio"] = (process_cpu - loadgen_cpu) / wall;
    m["loadgen.sent"] = ref_sent;
    m["loadgen.p50_us"] = median(p50);
    m["loadgen.p90_us"] = median(p90);
    m["loadgen.p99_us"] = median(p99);
    m["loadgen.late_p99_us"] = median(late);
    m["loadgen.sustained_rps"] = sustained;
  } else {
    m["setup_s"] = setup_s;
    m["simulate_s"] = pipeline.simulate_s;
    m["train_s"] = pipeline.train_s;
    m["holdout_mdape_pct"] = pipeline.holdout_mdape_pct;
    m["cpu_us_per_op"] = median(cpu_us_per_req);
    m["peak_rss_mb"] = rss_mb;
  }

  std::string reference_json = "[", probe_json = "[";
  for (const auto& r : reference.runs)
    reference_json += (reference_json.size() > 1 ? ", " : "") + rung_json(r, limits);
  for (const auto& r : probes)
    probe_json += (probe_json.size() > 1 ? ", " : "") + rung_json(r, limits);
  out.detail.str("loop", "open")
      .str("protocol", profile.binary ? "XFLBIN1" : "json-lines")
      .num("connections", static_cast<double>(reference_config.connections))
      .num("loadgen_threads", static_cast<double>(reference_config.threads))
      .num("reference_rps", profile.reference_rps)
      .num("p50_us", median(p50))
      .num("p90_us", median(p90))
      .num("p99_us", median(p99))
      .num("sustained_rps", sustained)
      .num("p90_limit_us", profile.p90_limit_us)
      .num("late_limit_us", limits.late_limit_us)
      .num("backlog_slack", static_cast<double>(limits.backlog_slack))
      .num("pool_size", static_cast<double>(pool.transfers.size()))
      .num("pool_unseen_edges", static_cast<double>(pool.unseen))
      .num("predicts", static_cast<double>(predicts))
      .num("explains", static_cast<double>(explains))
      .num("feedbacks", static_cast<double>(feedbacks))
      .num("feedback_matched", static_cast<double>(matched))
      .num("feedback_deferred", static_cast<double>(deferred))
      .num("replies_checked", static_cast<double>(checked))
      .num("bad_replies", static_cast<double>(bad_replies))
      .num("lost_at_reference", static_cast<double>(lost_at_reference))
      .str("check", "every reply, bit-for-bit against a direct predictor call")
      .raw("warmup", rung_json(warmup, limits))
      .raw("reference", reference_json + "]")
      .raw("ladder_probes", probe_json + "]");
  return out;
}

}  // namespace perfbench
