// Measurement helpers shared by every perfbench workload: percentiles
// with a sample-support rule, the open-loop ladder verdict, an in-memory
// span recorder with per-layer self time, and process clocks. Kept free
// of xferlearn headers so the self-tests exercise the arithmetic alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ seeded inputs

/// splitmix64 finaliser: the benchmark's one hash for seeded choices.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A hash mapped to [0, 1).
inline double unit_interval(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

/// Output checks compare doubles bit for bit.
inline bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ------------------------------------------------------------ percentiles

/// Linear-interpolated percentile (p in [0, 100]) of an ascending-sorted
/// sample. Requires a non-empty sample.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median of repeated measurements (the mean of the middle two for an
/// even count); 0 when empty. A shared host runs both slower and faster
/// than usual for seconds at a time (one process's 2 s GBT fit has read
/// 1.7-2.7 s in ten back-to-back repeats on a 4-vCPU host), so the lowest
/// repeat reads the rare fast moments and moves more from run to run
/// than the middle one.
double median(std::vector<double> repeats);

/// The highest percentile a sample supports: the largest p in
/// {50, 90, 99, 99.9, 99.99, 99.999} with at least ten samples above it,
/// i.e. n * (1 - p/100) >= 10. nullopt when even p50 is unsupported
/// (fewer than 20 samples).
struct TailPoint {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< Samples strictly above the percentile rank.
};
std::optional<TailPoint> supported_tail(std::span<const double> sorted);

/// True when the sample has at least ten values beyond percentile p.
bool supports_percentile(std::size_t samples, double p);

// ------------------------------------------------------------ ladder rule

/// One open-loop rung as measured: latencies are timed from each
/// request's scheduled send time; outstanding counts are requests sent
/// but not yet answered, sampled at the rung's midpoint and at its end.
struct RungResult {
  double rate = 0.0;               ///< Offered load, requests per second.
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;      ///< overloaded / timeout replies.
  std::uint64_t errors = 0;        ///< Any other error or bad reply.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double late_p90_us = 0.0;        ///< How late sends ran vs. schedule.
  double late_p99_us = 0.0;
  std::uint64_t outstanding_mid = 0;
  std::uint64_t outstanding_end = 0;
};

/// Limits apply at p90: on a shared host, scheduling stalls of the
/// virtual CPUs (1-10 ms, several a second) set p99 of any rate, so a p99
/// limit would measure the host's stalls instead of the server's capacity.
struct RungLimits {
  double p90_limit_us = 0.0;
  /// A rung whose sends ran later than this at p90 measured the load
  /// generator, not the server: it is reported as generator-limited.
  double late_limit_us = 0.0;
  /// Outstanding requests the end of a rung may exceed its midpoint by
  /// (in-flight slack: connections x max batch) before it counts as a
  /// growing backlog.
  std::uint64_t backlog_slack = 0;
};

enum class Verdict { kMet, kGeneratorLimited, kRejected, kBacklog, kLatency, kTooFewSamples };
const char* to_string(Verdict verdict);

/// Judge one rung. Order of precedence: a generator that fell behind
/// voids the rung; then failures, backlog growth, a sample too small to
/// support p90, and p90 over the limit.
Verdict judge_rung(const RungResult& rung, const RungLimits& limits);

/// A rung is met when any of its measurements met it (a rung is
/// measured up to twice: a shared host's scheduling stalls can fail one
/// measurement of a rung the server sustains).
bool rung_met(std::span<const RungResult> measurements, double rate, const RungLimits& limits);

/// sustained rate over a set of probed rungs: the highest rate that was
/// met with every lower probed rate also met. 0 when the lowest probe
/// failed. Measurements may arrive in any order, several per rate.
double sustained_rate(std::span<const RungResult> measurements, const RungLimits& limits);

/// Bisection over a fixed ascending ladder: `probe(i)` measures rung i;
/// a rung that fails is measured once more before it counts as unmet.
/// Returns every measurement in probe order. Converges on the boundary
/// between the last met and first unmet rung in ceil(log2(n + 1)) rungs.
template <typename Probe>
std::vector<RungResult> bisect_ladder(std::span<const double> ladder,
                                      const RungLimits& limits, Probe&& probe) {
  constexpr int kAttempts = 2;
  std::vector<RungResult> probed;
  long lo = -1;
  long hi = static_cast<long>(ladder.size());
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    bool met = false;
    for (int attempt = 0; attempt < kAttempts && !met; ++attempt) {
      probed.push_back(probe(static_cast<std::size_t>(mid)));
      met = judge_rung(probed.back(), limits) == Verdict::kMet;
    }
    if (met)
      lo = mid;
    else
      hi = mid;
  }
  return probed;
}

// ------------------------------------------------------------ spans

/// One recorded span: [start_ns, end_ns) on the steady clock, the layer
/// it belongs to (the name's prefix before the first '.'), and the index
/// of the span that was open on the same thread when it began (-1 for a
/// top-level span).
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint32_t tid = 0;
};

std::string layer_of(const std::string& span_name);

/// Nanoseconds of [start, end) covered by the union of `intervals`
/// (which may overlap one another or extend past the window).
std::uint64_t covered_ns(std::uint64_t start, std::uint64_t end,
                         std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals);

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (work fanned
/// out to threads) or run past the parent; only the covered union inside
/// the parent is subtracted, so self time is never negative.
std::vector<std::uint64_t> self_times_ns(std::span<const SpanRecord> spans);

/// Self time summed per layer, in seconds.
std::map<std::string, double> layer_self_seconds(std::span<const SpanRecord> spans);

/// In-memory span recorder. Disabled recorders record nothing, so the
/// untraced passes pay one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Pause or resume recording (single-threaded use between phases).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII scope; `name` must be a string literal or outlive the recorder.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;
    int index_ = -1;
  };

  std::vector<SpanRecord> spans() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds) with
  /// each event's parent index in args, as xferlearn --trace-out emits.
  void write_chrome_trace(std::ostream& out) const;

 private:
  int begin(const char* name);
  void end(int index);

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// ------------------------------------------------------------ clocks

/// Steady-clock nanoseconds (process-local epoch).
std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);
/// User + system CPU seconds consumed by the whole process so far.
double process_cpu_seconds();
/// Peak resident set size of the process, MB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
