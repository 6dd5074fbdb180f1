#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

namespace perfbench {

double percentile_sorted(std::span<const double> sorted, double p) {
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lower);
  return sorted[lower] + (sorted[upper] - sorted[lower]) * frac;
}

double median(std::vector<double> repeats) {
  if (repeats.empty()) return 0.0;
  std::sort(repeats.begin(), repeats.end());
  const std::size_t n = repeats.size();
  return n % 2 == 1 ? repeats[n / 2] : 0.5 * (repeats[n / 2 - 1] + repeats[n / 2]);
}

bool supports_percentile(std::size_t samples, double p) {
  // Samples strictly above rank p: n - ceil(n * p / 100). Computed in
  // integers of 1e-3 percent so 99.9 does not round the wrong way.
  const auto milli = static_cast<std::uint64_t>(std::llround(p * 1000.0));
  const std::uint64_t n = samples;
  const std::uint64_t at_or_below = (n * milli + 100000 - 1) / 100000;
  return n >= at_or_below && n - at_or_below >= 10;
}

std::optional<TailPoint> supported_tail(std::span<const double> sorted) {
  static constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};
  std::optional<TailPoint> best;
  for (const double p : kLadder) {
    if (!supports_percentile(sorted.size(), p)) break;
    const auto milli = static_cast<std::uint64_t>(std::llround(p * 1000.0));
    const std::uint64_t at_or_below = (sorted.size() * milli + 100000 - 1) / 100000;
    best = TailPoint{p, percentile_sorted(sorted, p), sorted.size() - at_or_below};
  }
  return best;
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kMet: return "met";
    case Verdict::kGeneratorLimited: return "generator_limited";
    case Verdict::kRejected: return "rejected";
    case Verdict::kBacklog: return "backlog";
    case Verdict::kLatency: return "latency";
    case Verdict::kTooFewSamples: return "too_few_samples";
  }
  return "?";
}

Verdict judge_rung(const RungResult& rung, const RungLimits& limits) {
  if (rung.late_p90_us > limits.late_limit_us) return Verdict::kGeneratorLimited;
  if (rung.rejected > 0 || rung.errors > 0 || rung.ok < rung.sent) return Verdict::kRejected;
  if (rung.outstanding_end > rung.outstanding_mid + limits.backlog_slack) return Verdict::kBacklog;
  if (!supports_percentile(rung.ok, 90.0)) return Verdict::kTooFewSamples;
  if (rung.p90_us > limits.p90_limit_us) return Verdict::kLatency;
  return Verdict::kMet;
}

bool rung_met(std::span<const RungResult> measurements, double rate, const RungLimits& limits) {
  return std::any_of(measurements.begin(), measurements.end(), [&](const RungResult& r) {
    return r.rate == rate && judge_rung(r, limits) == Verdict::kMet;
  });
}

double sustained_rate(std::span<const RungResult> measurements, const RungLimits& limits) {
  std::vector<double> rates;
  for (const auto& r : measurements) rates.push_back(r.rate);
  std::sort(rates.begin(), rates.end());
  rates.erase(std::unique(rates.begin(), rates.end()), rates.end());
  double best = 0.0;
  for (const double rate : rates) {
    if (!rung_met(measurements, rate, limits)) break;
    best = rate;
  }
  return best;
}

// ------------------------------------------------------------ spans

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::uint64_t covered_ns(std::uint64_t start, std::uint64_t end,
                         std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::clamp(a, start, end);
    b = std::clamp(b, start, end);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = start;
  for (const auto& [a, b] : intervals) {
    const std::uint64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

std::vector<std::uint64_t> self_times_ns(std::span<const SpanRecord> spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const auto& span : spans)
    if (span.parent >= 0 && static_cast<std::size_t>(span.parent) < spans.size())
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - covered_ns(spans[i].start_ns, spans[i].end_ns, std::move(children[i]));
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(std::span<const SpanRecord> spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i)
    layers[layer_of(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  return layers;
}

namespace {

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

/// Innermost open span on this thread, per recorder-agnostic stack.
thread_local std::vector<int> open_spans;

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  index_ = recorder.begin(name);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->end(index_);
}

int SpanRecorder::begin(const char* name) {
  SpanRecord record;
  record.name = name;
  record.start_ns = now_ns();
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.tid = thread_ordinal();
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size() - 1);
  open_spans.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  const std::uint64_t t = now_ns();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const auto spans = this->spans();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), layer_of(s.name).c_str(), s.tid,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
}

// ------------------------------------------------------------ clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
