#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <fcntl.h>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = xfl::serve;

enum class Kind : std::uint8_t { kPredict, kExplain, kFeedback };

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int connect_loopback(std::uint16_t port, bool binary) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the prediction server failed");
  }
  if (binary) {
    const auto magic = serve::kBinaryMagic;
    if (::send(fd, magic.data(), magic.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(magic.size()))
      throw std::runtime_error("binary negotiation send failed");
    char ack[8];
    std::size_t got = 0;
    while (got < sizeof ack) {
      const ssize_t n = ::recv(fd, ack + got, sizeof ack - got, 0);
      if (n <= 0) throw std::runtime_error("binary negotiation: no ack");
      got += static_cast<std::size_t>(n);
    }
    if (std::string_view(ack, sizeof ack) != magic)
      throw std::runtime_error("binary negotiation: bad ack");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Slot {
  std::uint64_t due_ns = 0;
  std::uint64_t trace = 0;       ///< Feedback: the trace id reported on.
  double expected = 0.0;         ///< Feedback: the rate served for it.
  std::uint32_t pool = 0;
  Kind kind = Kind::kPredict;
  bool answered = false;
};

struct Conn {
  int fd = -1;
  bool open = true;
  std::string in;
  std::string out;
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<Slot> slots;
  /// Answered predictions (trace id, served rate) not yet fed back;
  /// feedback takes the newest so it joins inside the monitor window.
  std::vector<std::pair<std::uint64_t, double>> traces;
};

/// Everything shared between the coordinating thread and the workers.
struct Shared {
  const LoadConfig* config = nullptr;
  const RequestPool* pool = nullptr;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<bool> failed{false};
};

struct Worker {
  LoadResult result;
  std::vector<double> late_us;
  std::vector<Conn> conns;
  std::string error;
};

class Runner {
 public:
  Runner(Shared& shared, Worker& worker, std::size_t first_conn)
      : shared_(shared), config_(*shared.config), pool_(*shared.pool), w_(worker),
        first_conn_(first_conn) {}

  void run() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    try {
      for (std::size_t c = first_conn_; c < config_.connections; c += config_.threads) {
        Conn conn;
        conn.fd = connect_loopback(config_.port, config_.binary);
        w_.conns.push_back(std::move(conn));
      }
    } catch (const std::exception& e) {
      w_.error = e.what();
      shared_.failed.store(true);
    }
    shared_.ready.fetch_add(1);
    std::uint64_t start = 0;
    while ((start = shared_.start_ns.load()) == 0) std::this_thread::yield();
    if (!w_.error.empty() || shared_.failed.load()) return;
    build_schedules(start);
    const double cpu0 = thread_cpu_seconds();
    loop(start);
    w_.result.loadgen_cpu_s = thread_cpu_seconds() - cpu0;
    finish();
  }

 private:
  void build_schedules(std::uint64_t start) {
    const double period_ns = 1e9 / config_.rate;
    const auto per_conn = static_cast<std::size_t>(config_.seconds * config_.rate /
                                                   static_cast<double>(config_.connections));
    w_.result.latencies_us.reserve(per_conn * w_.conns.size());
    w_.late_us.reserve(per_conn * w_.conns.size());
    std::size_t c = first_conn_;
    for (auto& conn : w_.conns) {
      conn.slots.resize(per_conn);
      for (std::size_t i = 0; i < per_conn; ++i) {
        Slot& slot = conn.slots[i];
        // Evenly spaced arrivals, interleaved across the connections.
        slot.due_ns = start + static_cast<std::uint64_t>(
                                  static_cast<double>(i * config_.connections + c) * period_ns);
        const std::uint64_t h = mix64(config_.seed ^ mix64((c << 40) ^ i));
        const double u = unit_interval(h);
        slot.kind = u < config_.explain_share ? Kind::kExplain
                    : u < config_.explain_share + config_.feedback_share ? Kind::kFeedback
                                                                          : Kind::kPredict;
        slot.pool = static_cast<std::uint32_t>(mix64(h) % pool_.transfers.size());
      }
      c += config_.threads;
    }
  }

  void encode(Conn& conn, std::size_t seq) {
    Slot& slot = conn.slots[seq];
    const auto& transfer = pool_.transfers[slot.pool];
    const auto& load = pool_.loads[slot.pool];
    if (slot.kind == Kind::kFeedback) {
      if (conn.traces.empty()) {
        slot.kind = Kind::kPredict;
        ++w_.result.feedback_deferred;
      } else {
        const auto [trace, rate] = conn.traces.back();
        conn.traces.pop_back();
        slot.trace = trace;
        slot.expected = rate;
        const double u = unit_interval(mix64(config_.seed ^ 0xfeedULL ^ mix64(trace)));
        const double observed = rate * (1.0 + kFeedbackNoise * (2.0 * u - 1.0));
        conn.out += serve::feedback_request_line(std::to_string(seq),
                                                 serve::trace_id_string(trace), observed);
        conn.out += '\n';
        ++w_.result.feedbacks;
        return;
      }
    }
    if (slot.kind == Kind::kExplain) {
      conn.out += serve::explain_request_line(std::to_string(seq), transfer, load, 0,
                                              kExplainTopK);
      conn.out += '\n';
      ++w_.result.explains;
      return;
    }
    if (config_.binary) {
      conn.out += serve::binary_predict_request(seq, transfer, load);
    } else {
      conn.out += serve::predict_request_line(std::to_string(seq), transfer, load);
      conn.out += '\n';
    }
    ++w_.result.predicts;
  }

  void flush(Conn& conn) {
    while (!conn.out.empty() && conn.open) {
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        conn.open = false;
      }
    }
  }

  Slot* claim(Conn& conn, std::uint64_t seq) {
    if (seq >= conn.next || conn.slots[seq].answered) {
      ++w_.result.rung.errors;  // A reply to nothing we sent.
      return nullptr;
    }
    Slot& slot = conn.slots[seq];
    slot.answered = true;
    ++conn.answered;
    shared_.answered.fetch_add(1, std::memory_order_relaxed);
    return &slot;
  }

  void count_error(const std::string& code) {
    if (code == serve::kErrOverloaded || code == serve::kErrTimeout) {
      ++w_.result.rung.rejected;
    } else {
      ++w_.result.rung.errors;
    }
  }

  void record_ok(const Slot& slot, std::uint64_t now) {
    ++w_.result.rung.ok;
    w_.result.latencies_us.push_back(static_cast<double>(now - slot.due_ns) * 1e-3);
  }

  void check(bool same) {
    ++w_.result.checked;
    if (!same) ++w_.result.mismatches;
  }

  void on_binary(Conn& conn, serve::BinaryType type, std::string_view payload,
                 std::uint64_t now) {
    serve::BinaryPredictReply reply;
    try {
      reply = serve::parse_binary_reply(type, payload);
    } catch (const std::exception&) {
      ++w_.result.rung.errors;
      return;
    }
    Slot* slot = claim(conn, reply.id);
    if (slot == nullptr) return;
    if (!reply.ok) return count_error(reply.error);
    check(same_bits(reply.rate_mbps, pool_.rates[slot->pool]) && reply.model_version == 1);
    record_ok(*slot, now);
  }

  static double number(const serve::JsonValue& v, const char* key) {
    const auto* field = v.find(key);
    return field != nullptr && field->is_number() ? field->number : std::nan("");
  }

  void on_json(Conn& conn, std::string_view line, std::uint64_t now) {
    serve::JsonValue v;
    std::uint64_t seq = 0;
    try {
      v = serve::parse_json(line);
      const auto* id = v.find("id");
      if (id == nullptr || !id->is_string()) throw std::runtime_error("no id");
      seq = std::stoull(id->string);
    } catch (const std::exception&) {
      ++w_.result.rung.errors;
      return;
    }
    Slot* slot = claim(conn, seq);
    if (slot == nullptr) return;
    const auto* ok = v.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->boolean) {
      const auto* code = v.find("error");
      return count_error(code != nullptr ? code->string : "");
    }
    const auto* version = v.find("version");
    const bool v1 = version != nullptr && version->is_number() && version->number == 1.0;
    switch (slot->kind) {
      case Kind::kPredict: {
        const double rate = number(v, "rate_mbps");
        check(same_bits(rate, pool_.rates[slot->pool]) && v1);
        std::uint64_t trace = 0;
        const auto* trace_field = v.find("trace_id");
        if (trace_field != nullptr && serve::parse_trace_id(trace_field->string, trace)) {
          conn.traces.emplace_back(trace, rate);
          if (conn.traces.size() > 256) conn.traces.erase(conn.traces.begin());
        }
        break;
      }
      case Kind::kExplain: {
        const auto& expected = pool_.explanations[slot->pool];
        bool same = v1 && same_bits(number(v, "rate_mbps"), expected.rate_mbps) &&
                    same_bits(number(v, "raw_mbps"), expected.raw_mbps) &&
                    same_bits(number(v, "bias_mbps"), expected.bias_mbps);
        const auto* entries = v.find("contributions");
        const std::size_t want =
            std::min<std::size_t>(kExplainTopK, expected.contributions.size());
        same = same && entries != nullptr && entries->is_array() && entries->array.size() == want;
        if (same) {
          for (const auto& entry : entries->array) {
            const auto* name = entry.find("feature");
            const auto at = name == nullptr ? expected.feature_names.end()
                                            : std::find(expected.feature_names.begin(),
                                                        expected.feature_names.end(), name->string);
            same = same && at != expected.feature_names.end() &&
                   same_bits(number(entry, "mbps"),
                             expected.contributions[static_cast<std::size_t>(
                                 at - expected.feature_names.begin())]);
          }
        }
        check(same);
        break;
      }
      case Kind::kFeedback: {
        const auto* matched = v.find("matched");
        if (matched != nullptr && matched->is_bool() && matched->boolean) {
          ++w_.result.feedback_matched;
          check(same_bits(number(v, "predicted_mbps"), slot->expected) && v1);
        }
        break;
      }
    }
    record_ok(*slot, now);
  }

  void drain_input(Conn& conn, std::uint64_t now) {
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        conn.in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) conn.open = false;
      break;
    }
    std::size_t pos = 0;
    if (config_.binary) {
      for (;;) {
        const auto frame = serve::decode_binary_frame(std::string_view(conn.in).substr(pos));
        if (frame.status == serve::BinaryDecode::Status::kNeedMore) break;
        if (frame.status == serve::BinaryDecode::Status::kBad) {
          ++w_.result.rung.errors;
          conn.open = false;
          break;
        }
        on_binary(conn, frame.type, frame.payload, now);
        pos += frame.consumed;
      }
    } else {
      for (;;) {
        const std::size_t nl = conn.in.find('\n', pos);
        if (nl == std::string::npos) break;
        on_json(conn, std::string_view(conn.in).substr(pos, nl - pos), now);
        pos = nl + 1;
      }
    }
    conn.in.erase(0, pos);
  }

  void loop(std::uint64_t start) {
    const std::uint64_t schedule_end =
        start + static_cast<std::uint64_t>(config_.seconds * 1e9);
    const std::uint64_t drain_deadline =
        schedule_end + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
    std::vector<pollfd> fds(w_.conns.size());
    for (;;) {
      std::uint64_t now = now_ns();
      std::uint64_t next_due = UINT64_MAX;
      bool done = true;
      for (auto& conn : w_.conns) {
        const std::size_t before = conn.next;
        while (conn.open && conn.next < conn.slots.size() &&
               conn.slots[conn.next].due_ns <= now) {
          w_.late_us.push_back(static_cast<double>(now - conn.slots[conn.next].due_ns) * 1e-3);
          encode(conn, conn.next++);
        }
        shared_.sent.fetch_add(conn.next - before, std::memory_order_relaxed);
        flush(conn);
        if (conn.open && conn.next < conn.slots.size())
          next_due = std::min(next_due, conn.slots[conn.next].due_ns);
        if (conn.open && (conn.next < conn.slots.size() || conn.answered < conn.next))
          done = false;
      }
      if (done || now >= drain_deadline) break;
      const std::uint64_t wake = std::min(next_due, drain_deadline);
      const std::uint64_t wait = wake > now ? wake - now : 0;
      for (std::size_t i = 0; i < fds.size(); ++i) {
        fds[i].fd = w_.conns[i].open ? w_.conns[i].fd : -1;
        fds[i].events = static_cast<short>(POLLIN | (w_.conns[i].out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const timespec timeout{static_cast<time_t>(wait / 1000000000ULL),
                             static_cast<long>(wait % 1000000000ULL)};
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      now = now_ns();
      for (std::size_t i = 0; i < fds.size(); ++i)
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) drain_input(w_.conns[i], now);
    }
  }

  void finish() {
    for (auto& conn : w_.conns) {
      w_.result.scheduled += conn.slots.size();
      w_.result.rung.sent += conn.next;
      w_.result.lost += conn.slots.size() - conn.answered;
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  Shared& shared_;
  const LoadConfig& config_;
  const RequestPool& pool_;
  Worker& w_;
  std::size_t first_conn_;
};

}  // namespace

LoadResult run_open_loop(const LoadConfig& config, const RequestPool& pool) {
  if (config.rate <= 0.0 || config.seconds <= 0.0 || config.connections == 0 ||
      config.threads == 0 || config.threads > config.connections || pool.transfers.empty())
    throw std::invalid_argument("run_open_loop: bad load configuration");
  if (config.binary && (config.explain_share > 0.0 || config.feedback_share > 0.0))
    throw std::invalid_argument("run_open_loop: the binary mix is predict-only");

  Shared shared;
  shared.config = &config;
  shared.pool = &pool;
  std::vector<Worker> workers(config.threads);
  std::vector<std::thread> threads;
  threads.reserve(config.threads);
  for (std::size_t t = 0; t < config.threads; ++t)
    threads.emplace_back([&, t] { Runner(shared, workers[t], t).run(); });
  while (shared.ready.load() < config.threads) std::this_thread::yield();

  const double cpu0 = process_cpu_seconds();
  const std::uint64_t start = now_ns() + 20'000'000;  // Let every worker reach its wait.
  shared.start_ns.store(start);
  const auto sample_at = [&](double fraction) {
    const std::uint64_t at = start + static_cast<std::uint64_t>(config.seconds * fraction * 1e9);
    const std::uint64_t now = now_ns();
    if (at > now) std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
    return shared.sent.load() - shared.answered.load();
  };
  LoadResult total;
  if (!shared.failed.load()) {
    total.rung.outstanding_mid = sample_at(0.5);
    total.rung.outstanding_end = sample_at(1.0);
  }
  for (auto& thread : threads) thread.join();
  total.wall_s = seconds_since(start);
  total.process_cpu_s = process_cpu_seconds() - cpu0;

  std::vector<double> late;
  for (auto& w : workers) {
    if (!w.error.empty()) throw std::runtime_error("load generator: " + w.error);
    const auto& r = w.result;
    total.rung.sent += r.rung.sent;
    total.rung.ok += r.rung.ok;
    total.rung.rejected += r.rung.rejected;
    total.rung.errors += r.rung.errors;
    total.latencies_us.insert(total.latencies_us.end(), r.latencies_us.begin(),
                              r.latencies_us.end());
    late.insert(late.end(), w.late_us.begin(), w.late_us.end());
    total.scheduled += r.scheduled;
    total.lost += r.lost;
    total.checked += r.checked;
    total.mismatches += r.mismatches;
    total.predicts += r.predicts;
    total.explains += r.explains;
    total.feedbacks += r.feedbacks;
    total.feedback_matched += r.feedback_matched;
    total.feedback_deferred += r.feedback_deferred;
    total.loadgen_cpu_s += r.loadgen_cpu_s;
  }
  total.rung.errors += total.lost;
  total.rung.rate = config.rate;
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  if (!total.latencies_us.empty()) {
    total.rung.p50_us = percentile_sorted(total.latencies_us, 50.0);
    total.rung.p90_us = percentile_sorted(total.latencies_us, 90.0);
    total.rung.p99_us = percentile_sorted(total.latencies_us, 99.0);
  }
  std::sort(late.begin(), late.end());
  if (!late.empty()) {
    total.rung.late_p90_us = percentile_sorted(late, 90.0);
    total.rung.late_p99_us = percentile_sorted(late, 99.0);
  }
  return total;
}

}  // namespace perfbench
