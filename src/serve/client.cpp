#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/protocol.hpp"

namespace xfl::serve {

PredictionClient::PredictionClient(const std::string& host,
                                   std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0)
    throw std::runtime_error(std::string("PredictionClient: socket: ") +
                             std::strerror(errno));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &address.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("PredictionClient: bad host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof address) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("PredictionClient: connect to " + numeric + ":" +
                             std::to_string(port) + ": " + what);
  }
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
}

PredictionClient::~PredictionClient() {
  if (fd_ >= 0) ::close(fd_);
}

void PredictionClient::send_raw(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0)
      throw std::runtime_error(std::string("PredictionClient: send: ") +
                               std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
}

void PredictionClient::send_line(const std::string& line) {
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  send_raw(framed);
}

void PredictionClient::negotiate_binary() {
  if (binary_) return;
  if (!buffer_.empty())
    throw std::runtime_error(
        "PredictionClient: negotiate_binary with unread replies buffered");
  send_raw(kBinaryMagic);
  while (buffer_.size() < kBinaryMagic.size()) {
    char chunk[64];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0)
      throw std::runtime_error(
          "PredictionClient: connection closed during binary negotiation");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  if (buffer_.compare(0, kBinaryMagic.size(), kBinaryMagic) != 0)
    throw std::runtime_error("PredictionClient: server refused binary mode");
  buffer_.erase(0, kBinaryMagic.size());
  binary_ = true;
}

std::pair<BinaryType, std::string> PredictionClient::read_frame() {
  for (;;) {
    const BinaryDecode decoded = decode_binary_frame(buffer_);
    if (decoded.status == BinaryDecode::Status::kFrame) {
      const BinaryType type = decoded.type;
      std::string payload(decoded.payload);
      buffer_.erase(0, decoded.consumed);
      return {type, std::move(payload)};
    }
    if (decoded.status == BinaryDecode::Status::kBad)
      throw std::runtime_error("PredictionClient: bad binary frame: " +
                               decoded.error);
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0)
      throw std::runtime_error(
          "PredictionClient: connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool PredictionClient::response_buffered() const {
  if (binary_)
    return decode_binary_frame(buffer_).status == BinaryDecode::Status::kFrame;
  return buffer_.find('\n') != std::string::npos;
}

void PredictionClient::send_document(const std::string& line) {
  if (binary_)
    send_raw(binary_json_frame(line));
  else
    send_line(line);
}

std::string PredictionClient::read_document() {
  if (!binary_) return read_line();
  // Packed predict replies arriving while an admin/feedback call waits
  // can only belong to pipelined low-level traffic; skip them.
  for (;;) {
    auto [type, payload] = read_frame();
    if (type == BinaryType::kJson) return payload;
  }
}

std::string PredictionClient::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0)
      throw std::runtime_error(
          "PredictionClient: connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

// Typed reads of one optional reply field; a missing or mistyped field
// leaves the default in place.
void read_field(const JsonValue& root, const char* key, std::string& out) {
  if (const JsonValue* v = root.find(key); v && v->is_string()) out = v->string;
}

void read_field(const JsonValue& root, const char* key, double& out) {
  if (const JsonValue* v = root.find(key); v && v->is_number()) out = v->number;
}

void read_field(const JsonValue& root, const char* key, std::uint64_t& out) {
  if (const JsonValue* v = root.find(key); v && v->is_number())
    out = static_cast<std::uint64_t>(v->number);
}

void read_field(const JsonValue& root, const char* key, bool& out) {
  if (const JsonValue* v = root.find(key); v && v->is_bool()) out = v->boolean;
}

/// The JSON reply decoder.
PredictReply reply_from_json(const JsonValue& root) {
  PredictReply reply;
  read_field(root, "id", reply.id);
  read_field(root, "ok", reply.ok);
  read_field(root, "rate_mbps", reply.rate_mbps);
  read_field(root, "model", reply.model);
  read_field(root, "version", reply.model_version);
  read_field(root, "trace_id", reply.trace_id);
  read_field(root, "server_ms", reply.server_ms);
  read_field(root, "error", reply.error);
  read_field(root, "message", reply.message);
  read_field(root, "raw_mbps", reply.raw_mbps);
  read_field(root, "bias_mbps", reply.bias_mbps);
  read_field(root, "low_mbps", reply.low_mbps);
  read_field(root, "high_mbps", reply.high_mbps);
  if (const JsonValue* c = root.find("contributions"); c && c->is_array())
    for (const JsonValue& entry : c->array) {
      const JsonValue* feature = entry.find("feature");
      const JsonValue* mbps = entry.find("mbps");
      if (feature && feature->is_string() && mbps && mbps->is_number())
        reply.contributions.emplace_back(feature->string, mbps->number);
    }
  return reply;
}

/// A packed reply as the client's one reply type.
PredictReply reply_from_packed(const BinaryPredictReply& packed) {
  PredictReply reply;
  reply.id = std::to_string(packed.id);
  reply.ok = packed.ok;
  reply.rate_mbps = packed.rate_mbps;
  if (packed.ok) reply.model = packed.edge_model ? "edge" : "global";
  reply.model_version = packed.model_version;
  if (packed.trace_id != 0) reply.trace_id = trace_id_string(packed.trace_id);
  reply.server_ms = packed.server_ms;
  reply.error = packed.error;
  reply.message = packed.message;
  reply.raw_mbps = packed.raw_mbps;
  reply.bias_mbps = packed.bias_mbps;
  reply.low_mbps = packed.low_mbps;
  reply.high_mbps = packed.high_mbps;
  reply.contributions = packed.contributions;
  return reply;
}

}  // namespace

PredictReply PredictionClient::parse_reply(const std::string& line) {
  const JsonValue root = parse_json(line);
  if (!root.is_object())
    throw std::runtime_error("PredictionClient: reply is not an object");
  return reply_from_json(root);
}

JsonValue PredictionClient::round_trip(const std::string& line,
                                       const std::string& id) {
  send_document(line);
  // Replies can be reordered by the batcher relative to other traffic on
  // this connection, so spin until ours appears.
  for (;;) {
    JsonValue root = parse_json(read_document());
    if (!root.is_object())
      throw std::runtime_error("PredictionClient: reply is not an object");
    const JsonValue* reply_id = root.find("id");
    if (reply_id != nullptr && reply_id->is_string() &&
        reply_id->string == id)
      return root;
  }
}

PredictReply PredictionClient::ask(const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load,
                                   std::uint64_t deadline_ms, bool explain,
                                   std::uint16_t top_k) {
  const std::uint64_t numeric_id = next_id_++;
  const std::string id = std::to_string(numeric_id);
  if (!binary_)
    return reply_from_json(round_trip(
        explain ? explain_request_line(id, transfer, load, deadline_ms, top_k)
                : predict_request_line(id, transfer, load, deadline_ms),
        id));
  // Packed hot path: kPredict/kExplain out, kPredictOk/kExplainOk/kError
  // back, ids numeric.
  send_raw(explain ? binary_explain_request(numeric_id, transfer, load,
                                            deadline_ms, top_k)
                   : binary_predict_request(numeric_id, transfer, load,
                                            deadline_ms));
  for (;;) {
    auto [type, payload] = read_frame();
    if (type == BinaryType::kJson) continue;  // Pipelined admin traffic.
    const BinaryPredictReply packed = parse_binary_reply(type, payload);
    if (packed.id == numeric_id) return reply_from_packed(packed);
  }
}

PredictReply PredictionClient::predict(
    const core::PlannedTransfer& transfer,
    const features::ContentionFeatures& load, std::uint64_t deadline_ms) {
  return ask(transfer, load, deadline_ms, /*explain=*/false, 0);
}

PredictReply PredictionClient::explain(
    const core::PlannedTransfer& transfer,
    const features::ContentionFeatures& load, std::uint64_t deadline_ms,
    std::uint16_t top_k) {
  return ask(transfer, load, deadline_ms, /*explain=*/true, top_k);
}

FeedbackReply PredictionClient::feedback(const std::string& trace_id,
                                         double observed_mbps) {
  const std::string id = std::to_string(next_id_++);
  const JsonValue root =
      round_trip(feedback_request_line(id, trace_id, observed_mbps), id);
  FeedbackReply reply;
  reply.id = id;
  read_field(root, "ok", reply.ok);
  read_field(root, "matched", reply.matched);
  read_field(root, "ape_pct", reply.ape_pct);
  read_field(root, "predicted_mbps", reply.predicted_mbps);
  read_field(root, "version", reply.model_version);
  read_field(root, "mdape_pct", reply.mdape_pct);
  read_field(root, "window", reply.window);
  read_field(root, "alarm", reply.alarm);
  return reply;
}

bool PredictionClient::ping() {
  const std::string id = std::to_string(next_id_++);
  std::string line = "{\"cmd\":\"ping\",\"id\":";
  append_json_string(line, id);
  line += "}";
  return reply_from_json(round_trip(line, id)).ok;
}

std::uint64_t PredictionClient::reload(const std::string& path) {
  const std::string id = std::to_string(next_id_++);
  std::string line = "{\"cmd\":\"reload\",\"id\":";
  append_json_string(line, id);
  if (!path.empty()) {
    line += ",\"path\":";
    append_json_string(line, path);
  }
  line += "}";
  const PredictReply reply = reply_from_json(round_trip(line, id));
  if (!reply.ok)
    throw std::runtime_error("PredictionClient: reload failed: " +
                             reply.message);
  return reply.model_version;
}

JsonValue PredictionClient::stats(bool registry) {
  const std::string id = std::to_string(next_id_++);
  std::string line = "{\"cmd\":\"stats\",\"id\":";
  append_json_string(line, id);
  if (registry) line += ",\"registry\":true";
  line += "}";
  return round_trip(line, id);
}

JsonValue PredictionClient::retrain_status() {
  const std::string id = std::to_string(next_id_++);
  std::string line = "{\"cmd\":\"retrain-status\",\"id\":";
  append_json_string(line, id);
  line += "}";
  return round_trip(line, id);
}

}  // namespace xfl::serve
