// Property and fuzz coverage for the length-prefixed binary frame codec,
// plus the end-to-end contract that matters most: a JSON client and a
// binary client asking the same server the same question get the same
// double, bit for bit.
//   - encode/decode round-trips over randomized requests and replies;
//   - truncation at EVERY byte offset of a valid frame is kNeedMore —
//     never a frame, never a crash, never a read past the buffer;
//   - random garbage decodes to *something* without UB (bounds-checked
//     cursor, all-or-nothing reads);
//   - interleaved JSON + binary connections on one server, including
//     kJson-wrapped admin traffic on a binary connection.
// Tier2-serve label: runs under the sanitizer configurations too, which
// is what turns "never UB" from a comment into a checked property.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/predictor.hpp"
#include "serve/client.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace xfl::serve {
namespace {

core::PlannedTransfer random_transfer(std::mt19937& rng) {
  core::PlannedTransfer planned;
  planned.src = std::uniform_int_distribution<endpoint::EndpointId>(0, 64)(rng);
  planned.dst = std::uniform_int_distribution<endpoint::EndpointId>(0, 64)(rng);
  planned.bytes =
      std::uniform_real_distribution<double>(1.0, 1e14)(rng);
  planned.files = std::uniform_int_distribution<std::uint64_t>(1, 1 << 20)(rng);
  planned.dirs = std::uniform_int_distribution<std::uint64_t>(1, 1 << 10)(rng);
  planned.concurrency =
      std::uniform_int_distribution<std::uint32_t>(1, 64)(rng);
  planned.parallelism =
      std::uniform_int_distribution<std::uint32_t>(1, 64)(rng);
  return planned;
}

/// Every contention load field, so a codec that drops or swaps one is
/// caught by the round trips below.
constexpr double features::ContentionFeatures::*kLoadMembers[] = {
    &features::ContentionFeatures::k_sout, &features::ContentionFeatures::k_sin,
    &features::ContentionFeatures::k_dout, &features::ContentionFeatures::k_din,
    &features::ContentionFeatures::g_src,  &features::ContentionFeatures::g_dst,
    &features::ContentionFeatures::s_sout, &features::ContentionFeatures::s_sin,
    &features::ContentionFeatures::s_dout, &features::ContentionFeatures::s_din,
};

features::ContentionFeatures random_load(std::mt19937& rng) {
  features::ContentionFeatures load;
  std::uniform_real_distribution<double> value(0.0, 5000.0);
  for (const auto member : kLoadMembers) load.*member = value(rng);
  return load;
}

// ------------------------------------------------------------ round trips

TEST(ServeBinaryCodec, PredictRequestRoundTripsRandomized) {
  std::mt19937 rng(1234);
  for (int round = 0; round < 500; ++round) {
    const auto planned = random_transfer(rng);
    const auto load = round % 3 == 0 ? features::ContentionFeatures{}
                                     : random_load(rng);
    const std::uint64_t id =
        std::uniform_int_distribution<std::uint64_t>(0, ~0ull)(rng);
    const std::uint64_t deadline_ms =
        std::uniform_int_distribution<std::uint64_t>(0, 86400000)(rng);
    const std::string wire =
        binary_predict_request(id, planned, load, deadline_ms);

    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    ASSERT_EQ(decoded.type, BinaryType::kPredict);
    ASSERT_EQ(decoded.consumed, wire.size());

    const Frame frame = parse_binary_predict(decoded.payload);
    ASSERT_EQ(frame.kind, Frame::Kind::kPredict) << frame.error;
    EXPECT_TRUE(frame.predict.binary);
    EXPECT_EQ(frame.predict.binary_id, id);
    EXPECT_EQ(frame.predict.transfer.src, planned.src);
    EXPECT_EQ(frame.predict.transfer.dst, planned.dst);
    EXPECT_EQ(frame.predict.transfer.bytes, planned.bytes);  // Bit-exact.
    EXPECT_EQ(frame.predict.transfer.files, planned.files);
    EXPECT_EQ(frame.predict.transfer.dirs, planned.dirs);
    EXPECT_EQ(frame.predict.transfer.concurrency, planned.concurrency);
    EXPECT_EQ(frame.predict.transfer.parallelism, planned.parallelism);
    EXPECT_EQ(frame.predict.deadline_ms, deadline_ms);
    for (std::size_t f = 0; f < std::size(kLoadMembers); ++f)
      EXPECT_EQ(frame.predict.load.*kLoadMembers[f], load.*kLoadMembers[f])
          << "load field " << f;
  }
}

// ----------------------------------------------------- shared validation

TEST(ServeBinaryCodec, BothFramingsValidateAlike) {
  // parse_frame and parse_binary_predict share one range validator, so
  // every boundary must land on the same side in both framings.
  struct Case {
    std::string name;
    bool valid = true;
    core::PlannedTransfer transfer;
    features::ContentionFeatures load;
    std::uint64_t deadline_ms = 0;
  };
  std::vector<Case> cases;
  const auto add = [&cases](std::string name, bool valid, auto edit) {
    Case c;
    c.name = std::move(name);
    c.valid = valid;
    c.transfer.bytes = 1e9;
    edit(c);
    cases.push_back(c);
  };
  const std::uint64_t endpoints = 1u << 30, files = 1ull << 40,
                      streams = 1u << 20;
  for (const std::uint64_t v : {endpoints, endpoints + 1}) {
    const auto id = static_cast<endpoint::EndpointId>(v);
    add("src " + std::to_string(v), v == endpoints,
        [id](Case& c) { c.transfer.src = id; });
    add("dst " + std::to_string(v), v == endpoints,
        [id](Case& c) { c.transfer.dst = id; });
  }
  const std::uint64_t file_counts[] = {0, 1, files, files + 1};
  for (const std::uint64_t v : file_counts) {
    const bool valid = v >= 1 && v <= files;
    add("files " + std::to_string(v), valid,
        [v](Case& c) { c.transfer.files = v; });
    add("dirs " + std::to_string(v), valid,
        [v](Case& c) { c.transfer.dirs = v; });
  }
  const std::uint64_t stream_counts[] = {0, 1, streams, streams + 1};
  for (const std::uint64_t v : stream_counts) {
    const bool valid = v >= 1 && v <= streams;
    const auto n = static_cast<std::uint32_t>(v);
    add("concurrency " + std::to_string(v), valid,
        [n](Case& c) { c.transfer.concurrency = n; });
    add("parallelism " + std::to_string(v), valid,
        [n](Case& c) { c.transfer.parallelism = n; });
  }
  for (const std::uint64_t v : {86400000u, 86400001u})
    add("deadline " + std::to_string(v), v == 86400000u,
        [v](Case& c) { c.deadline_ms = v; });
  add("bytes -1", false, [](Case& c) { c.transfer.bytes = -1.0; });
  add("bytes nan", false, [](Case& c) { c.transfer.bytes = std::nan(""); });
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t f = 0; f < std::size(kLoadMembers); ++f)
    for (const double v : {inf, -inf})
      add("load field " + std::to_string(f) + " = " + std::to_string(v), false,
          [f, v](Case& c) { c.load.*kLoadMembers[f] = v; });

  for (const Case& c : cases) {
    const Frame json = parse_frame(
        predict_request_line("1", c.transfer, c.load, c.deadline_ms));
    const std::string wire =
        binary_predict_request(1, c.transfer, c.load, c.deadline_ms);
    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame) << c.name;
    const Frame packed = parse_binary_predict(decoded.payload);
    EXPECT_EQ(json.kind == Frame::Kind::kPredict, c.valid)
        << c.name << ": " << json.error;
    EXPECT_EQ(packed.kind == Frame::Kind::kPredict, c.valid)
        << c.name << ": " << packed.error;
    // A finite value reaches the shared validator in both framings, so
    // the reason matches too. JSON carries a non-finite value as null,
    // which its parser rejects first as a type error.
    bool finite = std::isfinite(c.transfer.bytes);
    for (const auto member : kLoadMembers)
      finite = finite && std::isfinite(c.load.*member);
    if (finite) {
      EXPECT_EQ(json.error, packed.error) << c.name;
    }
  }
}

TEST(ServeBinaryCodec, OverlongDeadlineIsRejectedInBothFramings) {
  // 2^32 + 5 ms: a u32 wire field that wrapped would carry 5 ms, which
  // the server would accept. Saturation keeps it out of range.
  const std::uint64_t deadline_ms = (1ull << 32) + 5;
  core::PlannedTransfer planned;
  planned.bytes = 1e9;
  EXPECT_EQ(parse_frame(predict_request_line("1", planned, {}, deadline_ms))
                .kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(explain_request_line("1", planned, {}, deadline_ms))
                .kind,
            Frame::Kind::kBad);
  const std::string predict_wire =
      binary_predict_request(1, planned, {}, deadline_ms);
  const BinaryDecode predict = decode_binary_frame(predict_wire);
  ASSERT_EQ(predict.status, BinaryDecode::Status::kFrame);
  EXPECT_EQ(parse_binary_predict(predict.payload).kind, Frame::Kind::kBad);
  const std::string explain_wire =
      binary_explain_request(1, planned, {}, deadline_ms);
  const BinaryDecode explain = decode_binary_frame(explain_wire);
  ASSERT_EQ(explain.status, BinaryDecode::Status::kFrame);
  EXPECT_EQ(parse_binary_explain(explain.payload).kind, Frame::Kind::kBad);
}

TEST(ServeBinaryCodec, ReplyFramesRoundTripRandomized) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint64_t> u64(0, ~0ull);
  std::uniform_real_distribution<double> rate(0.0, 1e6);
  for (int round = 0; round < 500; ++round) {
    const std::uint64_t id = u64(rng);
    const std::uint64_t version = u64(rng) % 10000;
    const std::uint64_t trace = u64(rng);
    const double mbps = rate(rng);
    const double server_ms = rate(rng) / 1000.0;
    const bool edge = round % 2 == 0;
    const std::string wire = binary_predict_response(
        id, mbps, edge, version, trace, server_ms);
    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    ASSERT_EQ(decoded.type, BinaryType::kPredictOk);
    const BinaryPredictReply reply =
        parse_binary_reply(decoded.type, decoded.payload);
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.id, id);
    EXPECT_EQ(reply.rate_mbps, mbps);  // Bit-exact, the protocol's point.
    EXPECT_EQ(reply.edge_model, edge);
    EXPECT_EQ(reply.model_version, version);
    EXPECT_EQ(reply.trace_id, trace);
    EXPECT_EQ(reply.server_ms, server_ms);
  }
}

TEST(ServeBinaryCodec, ErrorFramesRoundTripWithArbitraryMessages) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    // Messages with embedded NULs and high bytes: binary framing should
    // not care what the text contains.
    std::string message;
    const std::size_t length =
        std::uniform_int_distribution<std::size_t>(0, 300)(rng);
    for (std::size_t i = 0; i < length; ++i)
      message.push_back(static_cast<char>(
          std::uniform_int_distribution<int>(0, 255)(rng)));
    const std::uint64_t id =
        std::uniform_int_distribution<std::uint64_t>(0, ~0ull)(rng);
    const std::string wire =
        binary_error_response(id, kErrOverloaded, message, 42, 1.5);
    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    ASSERT_EQ(decoded.type, BinaryType::kError);
    const BinaryPredictReply reply =
        parse_binary_reply(decoded.type, decoded.payload);
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.id, id);
    EXPECT_EQ(reply.error, kErrOverloaded);
    EXPECT_EQ(reply.message, message);
    EXPECT_EQ(reply.trace_id, 42u);
  }
}

TEST(ServeBinaryCodec, JsonFrameWrapsAndStripsNewlines) {
  const std::string wire = binary_json_frame("{\"cmd\":\"ping\"}\n");
  const BinaryDecode decoded = decode_binary_frame(wire);
  ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
  ASSERT_EQ(decoded.type, BinaryType::kJson);
  EXPECT_EQ(decoded.payload, "{\"cmd\":\"ping\"}");
}

// ------------------------------------------------------------- truncation

TEST(ServeBinaryCodec, TruncationAtEveryByteOffsetNeedsMore) {
  std::mt19937 rng(55);
  std::vector<std::string> frames;
  frames.push_back(binary_predict_request(17, random_transfer(rng),
                                          random_load(rng), 2500));
  frames.push_back(binary_predict_response(9, 312.5, true, 3, 1009, 0.42));
  frames.push_back(binary_error_response(1, kErrTimeout, "too slow", 7, 9.0));
  frames.push_back(binary_json_frame("{\"cmd\":\"stats\"}"));
  for (const std::string& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const BinaryDecode decoded =
          decode_binary_frame(std::string_view(frame).substr(0, cut));
      EXPECT_EQ(decoded.status, BinaryDecode::Status::kNeedMore)
          << "frame of " << frame.size() << " cut at " << cut;
    }
    // And the full frame still decodes after all that.
    EXPECT_EQ(decode_binary_frame(frame).status,
              BinaryDecode::Status::kFrame);
  }
}

TEST(ServeBinaryCodec, TruncatedPayloadsThrowInsteadOfMisreading) {
  // parse_binary_reply on a cut-down payload must throw (structured
  // channel gone), never read past the end or fabricate fields.
  core::RateExplanation explanation;
  explanation.rate_mbps = 100.0;
  explanation.feature_names = {"Nb", "C"};
  explanation.contributions = {3.5, -1.25};
  for (const std::string& wire :
       {binary_predict_response(12, 100.0, false, 2, 44, 1.0),
        binary_explain_response(13, explanation, 2, 45, 1.0, 0),
        binary_error_response(14, kErrTimeout, "too slow", 46, 1.0)}) {
    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    EXPECT_NO_THROW(parse_binary_reply(decoded.type, decoded.payload));
    for (std::size_t cut = 0; cut < decoded.payload.size(); ++cut)
      EXPECT_THROW(
          parse_binary_reply(decoded.type, decoded.payload.substr(0, cut)),
          std::exception)
          << "type " << static_cast<int>(decoded.type) << " payload cut at "
          << cut;
  }
  // Same for request payloads, which must yield kBad — not throw, the
  // server answers errors instead of dying.
  std::mt19937 rng(8);
  const std::string request = binary_predict_request(3, random_transfer(rng));
  const BinaryDecode request_decoded = decode_binary_frame(request);
  ASSERT_EQ(request_decoded.status, BinaryDecode::Status::kFrame);
  for (std::size_t cut = 0; cut < request_decoded.payload.size(); ++cut) {
    const Frame frame =
        parse_binary_predict(request_decoded.payload.substr(0, cut));
    EXPECT_EQ(frame.kind, Frame::Kind::kBad) << "payload cut at " << cut;
  }
}

TEST(ServeBinaryCodec, RandomGarbageNeverMisbehaves) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 600);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    const std::size_t length = size(rng);
    garbage.reserve(length);
    for (std::size_t i = 0; i < length; ++i)
      garbage.push_back(static_cast<char>(byte(rng)));
    const BinaryDecode decoded = decode_binary_frame(garbage);
    if (decoded.status == BinaryDecode::Status::kFrame) {
      EXPECT_LE(decoded.consumed, garbage.size());
      // A lucky valid frame must still parse without UB; outcome is
      // whatever it is (kBad or a throw are both structured).
      if (decoded.type == BinaryType::kPredict) {
        const Frame frame = parse_binary_predict(decoded.payload);
        (void)frame;
      } else if (decoded.type != BinaryType::kJson) {
        try {
          (void)parse_binary_reply(decoded.type, decoded.payload);
        } catch (const std::exception&) {
        }
      }
    }
  }
}

// ----------------------------------------------------------- end to end

std::shared_ptr<const core::TransferPredictor> shared_predictor() {
  static const auto predictor = [] {
    sim::EsnetConfig config;
    config.transfers = 400;
    config.duration_s = 86400.0;
    config.seed = 31;
    const auto log = sim::make_esnet_testbed(config).run().log;
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 50;
    options.gbt.trees = 10;
    auto fitted = std::make_shared<core::TransferPredictor>(options);
    fitted->fit(log);
    return std::shared_ptr<const core::TransferPredictor>(fitted);
  }();
  return predictor;
}

TEST(ServeBinaryE2E, JsonAndBinaryClientsGetBitIdenticalPredictions) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient json_client("127.0.0.1", server.port());
  PredictionClient binary_client("127.0.0.1", server.port());
  binary_client.negotiate_binary();
  ASSERT_TRUE(binary_client.binary());

  std::mt19937 rng(77);
  for (int i = 0; i < 40; ++i) {
    core::PlannedTransfer planned = random_transfer(rng);
    planned.src = i % 2 == 0 ? 0 : 2;  // Stay on fitted endpoints.
    planned.dst = i % 3 == 0 ? 1 : 3;
    const auto load = i % 2 == 0 ? features::ContentionFeatures{}
                                 : random_load(rng);
    const auto json_reply = json_client.predict(planned, load);
    const auto binary_reply = binary_client.predict(planned, load);
    ASSERT_TRUE(json_reply.ok) << json_reply.message;
    ASSERT_TRUE(binary_reply.ok) << binary_reply.message;
    // The whole point of %.17g + raw IEEE bits: one server, one answer.
    EXPECT_EQ(json_reply.rate_mbps, binary_reply.rate_mbps) << "row " << i;
    EXPECT_EQ(json_reply.model, binary_reply.model);
    EXPECT_EQ(json_reply.model_version, binary_reply.model_version);
  }
  server.stop();
}

TEST(ServeBinaryE2E, OverlongDeadlineIsABadRequestInBothFramings) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient json_client("127.0.0.1", server.port());
  PredictionClient binary_client("127.0.0.1", server.port());
  binary_client.negotiate_binary();
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 4.0 * kGB;
  const std::uint64_t deadline_ms = (1ull << 32) + 5;
  for (PredictionClient* client : {&json_client, &binary_client}) {
    const auto predicted = client->predict(planned, {}, deadline_ms);
    EXPECT_FALSE(predicted.ok) << "binary " << client->binary();
    EXPECT_EQ(predicted.error, kErrBadRequest);
    const auto explained = client->explain(planned, {}, deadline_ms);
    EXPECT_FALSE(explained.ok) << "binary " << client->binary();
    EXPECT_EQ(explained.error, kErrBadRequest);
    // The connection still serves after the rejection.
    EXPECT_TRUE(client->predict(planned).ok);
  }
  server.stop();
}

TEST(ServeBinaryE2E, AdminAndFeedbackRideKJsonFramesAfterNegotiation) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient client("127.0.0.1", server.port());
  client.negotiate_binary();
  EXPECT_TRUE(client.ping());

  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 25.0 * kGB;
  planned.files = 10;
  const auto reply = client.predict(planned);
  ASSERT_TRUE(reply.ok);
  ASSERT_FALSE(reply.trace_id.empty());

  // Feedback joins on the trace id the packed reply carried.
  const auto feedback = client.feedback(reply.trace_id, reply.rate_mbps);
  EXPECT_TRUE(feedback.ok);
  EXPECT_TRUE(feedback.matched);

  const auto stats = client.stats();
  const auto* requests = stats.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number, 1.0);
  const auto* shards = stats.find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_GE(shards->number, 1.0);
  server.stop();
}

TEST(ServeBinaryE2E, MagicMidStreamUpgradesAtFrameBoundaryOnly) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient client("127.0.0.1", server.port());
  // JSON round trip first, then upgrade, then a packed round trip: the
  // same connection serves both framings in sequence.
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 4.0 * kGB;
  planned.files = 2;
  const auto before = client.predict(planned);
  ASSERT_TRUE(before.ok);
  client.negotiate_binary();
  const auto after = client.predict(planned);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(before.rate_mbps, after.rate_mbps);
  server.stop();
}

}  // namespace
}  // namespace xfl::serve
