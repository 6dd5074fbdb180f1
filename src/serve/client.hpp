// Blocking client for the prediction server. One TCP connection, one
// outstanding high-level call at a time; replies are matched on the
// request id, so a pipelining caller can also drive the connection
// directly through send_line()/read_line() (the overload and drain tests
// do, and serve-bench uses the high-level calls from many threads, one
// client each).
//
// negotiate_binary() flips the connection to the length-prefixed binary
// framing: predict() then travels as packed kPredict/kPredictOk frames
// (bit-identical rates, no JSON in the hot path) while feedback/admin
// calls transparently ride inside kJson frames. The high-level API is
// identical in both modes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace xfl::serve {

/// One server reply, decoded from either framing. For admin replies
/// rate_mbps/model are unset; the attribution fields are set only by
/// explain replies.
struct PredictReply {
  std::string id;
  bool ok = false;
  double rate_mbps = 0.0;
  std::string model;  ///< "edge" or "global" on success.
  std::uint64_t model_version = 0;
  std::string trace_id;   ///< Server trace id ("t17"); feedback joins on it.
  double server_ms = 0.0; ///< In-server latency reported by the server.
  std::string error;  ///< Protocol error code when !ok.
  std::string message;
  // Explain replies: contributions come back in the server's ranked
  // order (|mbps| descending, ties in model feature order) and sum with
  // bias_mbps to raw_mbps bit-exactly when top_k did not truncate.
  double raw_mbps = 0.0;
  double bias_mbps = 0.0;
  double low_mbps = 0.0;
  double high_mbps = 0.0;
  std::vector<std::pair<std::string, double>> contributions;
};

/// One decoded feedback reply.
struct FeedbackReply {
  std::string id;
  bool ok = false;
  bool matched = false;    ///< Trace id was still in the server journal.
  double ape_pct = 0.0;
  double predicted_mbps = 0.0;
  std::uint64_t model_version = 0;
  double mdape_pct = 0.0;  ///< Windowed MdAPE for that model version.
  std::uint64_t window = 0;
  bool alarm = false;
};

class PredictionClient {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  /// `host` is a dotted IPv4 address or "localhost".
  PredictionClient(const std::string& host, std::uint16_t port);
  ~PredictionClient();

  PredictionClient(const PredictionClient&) = delete;
  PredictionClient& operator=(const PredictionClient&) = delete;

  /// Send one predict request and block for its reply. Transport errors
  /// throw; server-side errors come back in the reply (ok = false).
  PredictReply predict(const core::PlannedTransfer& transfer,
                       const features::ContentionFeatures& load = {},
                       std::uint64_t deadline_ms = 0);

  /// predict() plus per-feature attribution. `top_k` keeps only the
  /// strongest contributions (0 = all). Travels as an "explain" JSON
  /// request or a kExplain frame after negotiate_binary().
  PredictReply explain(const core::PlannedTransfer& transfer,
                       const features::ContentionFeatures& load = {},
                       std::uint64_t deadline_ms = 0,
                       std::uint16_t top_k = 0);

  /// Report the observed rate of a completed transfer back to the
  /// prediction identified by `trace_id` (from PredictReply::trace_id).
  FeedbackReply feedback(const std::string& trace_id, double observed_mbps);

  /// True when the server answers the ping.
  bool ping();

  /// Hot-reload the server's model (empty path = server's configured
  /// file). Returns the new model version; throws on reload failure.
  std::uint64_t reload(const std::string& path = "");

  /// Raw parsed "stats" reply. `registry` embeds the server's full
  /// metrics-registry snapshot under "metrics".
  JsonValue stats(bool registry = false);

  /// Raw parsed "retrain-status" reply: the background refit worker's
  /// status under "retrain" ({"enabled":false} when none is attached).
  JsonValue retrain_status();

  /// Switch this connection to binary framing (sends the magic, blocks
  /// for the server's ack). Irreversible; throws if the server does not
  /// ack or if un-consumed pipelined replies are still buffered.
  void negotiate_binary();
  bool binary() const { return binary_; }

  // Low-level framing for pipelined use (JSON mode).
  void send_line(const std::string& line);  ///< Throws on transport error.
  std::string read_line();                  ///< Blocks; throws on EOF.
  static PredictReply parse_reply(const std::string& line);

  // Low-level binary framing (after negotiate_binary()).
  void send_raw(std::string_view bytes);
  /// Block for one well-formed frame; throws on EOF or bad framing.
  std::pair<BinaryType, std::string> read_frame();

  /// True when a complete response (a full frame in binary mode, a
  /// newline-terminated line otherwise) is already buffered, so the next
  /// read will not touch the socket. Pipelined callers use this to drain
  /// every buffered reply and batch the follow-up sends into one write.
  bool response_buffered() const;

 private:
  /// The send/await path predict() and explain() share.
  PredictReply ask(const core::PlannedTransfer& transfer,
                   const features::ContentionFeatures& load,
                   std::uint64_t deadline_ms, bool explain,
                   std::uint16_t top_k);
  /// Send one JSON document and block for the JSON reply carrying `id`.
  JsonValue round_trip(const std::string& line, const std::string& id);
  /// Send one JSON document over whichever framing is active.
  void send_document(const std::string& line);
  /// Block for one JSON document (a line, or a kJson frame's payload).
  std::string read_document();

  int fd_ = -1;
  std::string buffer_;
  std::uint64_t next_id_ = 1;
  bool binary_ = false;
};

}  // namespace xfl::serve
