// Golden wire bytes: the exact encodings of every reply and request the
// serve protocol writes, pinned as constants. The JSON and packed
// encoders share one reply value and one load-field table; these
// constants prove that sharing changes no byte on the wire in either
// direction. Packed frames are compared as lowercase hex.
//
// Covered: JSON and packed predict, explain (top_k 0 and 3) and error
// replies (with and without a trace id); predict and explain requests in
// both framings, with an idle and a non-idle load; one kJson-wrapped
// admin reply.
#include <gtest/gtest.h>

#include <string>

#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "serve/protocol.hpp"

namespace xfl::serve {
namespace {

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

core::RateExplanation explanation() {
  core::RateExplanation e;
  e.rate_mbps = 1234.5678901234567;
  e.raw_mbps = 1234.5678901234567;
  e.bias_mbps = 1222.1928901234567;
  e.low_mbps = 987.65432109876543;
  e.high_mbps = 1500.125;
  e.edge_model = true;
  // "C" and "P" tie on |mbps|: the ranked order keeps feature order.
  e.feature_names = {"Nb", "Kdin", "C", "P", "Ksout"};
  e.contributions = {12.5, -40.25, 3.0, -3.0, 0.125};
  return e;
}

core::PlannedTransfer transfer() {
  core::PlannedTransfer planned;
  planned.src = 3;
  planned.dst = 7;
  planned.bytes = 5.0e10;
  planned.files = 20;
  planned.dirs = 2;
  planned.concurrency = 8;
  planned.parallelism = 4;
  return planned;
}

features::ContentionFeatures busy_load() {
  features::ContentionFeatures load;
  load.k_sout = 1.5;
  load.k_sin = 2.25;
  load.k_dout = 3.125;
  load.k_din = 4.0;
  load.g_src = 0.5;
  load.g_dst = 6.75;
  load.s_sout = 7.0;
  load.s_sin = 8.5;
  load.s_dout = 9.25;
  load.s_din = 10.0;
  return load;
}

TEST(ServeWireGolden, JsonReplies) {
  EXPECT_EQ(predict_response("r1", 1234.5678901234567, true, 3, 17, 0.25),
            R"({"id":"r1","ok":true,"rate_mbps":1234.5678901234567,)"
            R"("model":"edge","version":3,"trace_id":"t17","server_ms":0.25})"
            "\n");
  EXPECT_EQ(predict_response("r2", 0.01, false, 1, 0, 12.0),
            R"({"id":"r2","ok":true,"rate_mbps":0.01,"model":"global",)"
            R"("version":1,"trace_id":"t0","server_ms":12})"
            "\n");
  EXPECT_EQ(explain_response("r3", explanation(), 3, 18, 0.5, 0),
            R"({"id":"r3","ok":true,"rate_mbps":1234.5678901234567,)"
            R"("raw_mbps":1234.5678901234567,"bias_mbps":1222.1928901234567,)"
            R"("low_mbps":987.65432109876542,"high_mbps":1500.125,)"
            R"("model":"edge","version":3,"trace_id":"t18","server_ms":0.5,)"
            R"("contributions":[{"feature":"Kdin","mbps":-40.25},)"
            R"({"feature":"Nb","mbps":12.5},{"feature":"C","mbps":3},)"
            R"({"feature":"P","mbps":-3},{"feature":"Ksout","mbps":0.125}]})"
            "\n");
  EXPECT_EQ(explain_response("r4", explanation(), 3, 19, 0.75, 3),
            R"({"id":"r4","ok":true,"rate_mbps":1234.5678901234567,)"
            R"("raw_mbps":1234.5678901234567,"bias_mbps":1222.1928901234567,)"
            R"("low_mbps":987.65432109876542,"high_mbps":1500.125,)"
            R"("model":"edge","version":3,"trace_id":"t19","server_ms":0.75,)"
            R"("contributions":[{"feature":"Kdin","mbps":-40.25},)"
            R"({"feature":"Nb","mbps":12.5},{"feature":"C","mbps":3}]})"
            "\n");
  EXPECT_EQ(error_response("r5", kErrBadRequest, "bad \"x\"\n"),
            R"({"id":"r5","ok":false,"error":"bad_request",)"
            R"("message":"bad \"x\"\n"})"
            "\n");
  EXPECT_EQ(error_response("r6", kErrTimeout, "deadline", 20, 1.5),
            R"({"id":"r6","ok":false,"error":"timeout","message":"deadline",)"
            R"("trace_id":"t20","server_ms":1.5})"
            "\n");
}

TEST(ServeWireGolden, PackedReplies) {
  EXPECT_EQ(hex(binary_predict_response(41, 1234.5678901234567, true, 3, 17,
                                        0.25)),
            "2a000000022900000000000000df0ffd84454a93400103000000000000001100"
            "000000000000000000000000d03f");
  EXPECT_EQ(hex(binary_predict_response(42, 0.01, false, 1, 0, 12.0)),
            "2a000000022a000000000000007b14ae47e17a843f0001000000000000000000"
            "0000000000000000000000002840");
  EXPECT_EQ(hex(binary_explain_response(43, explanation(), 3, 18, 0.5, 0)),
            "8b000000052b00000000000000df0ffd84454a93400103000000000000001200"
            "000000000000000000000000e03fdf0ffd84454a9340df0ffd84c51893403e42"
            "b30c3cdd8e400000000080709740050004004b64696e00000000002044c00200"
            "4e620000000000002940010043000000000000084001005000000000000008c0"
            "05004b736f7574000000000000c03f");
  EXPECT_EQ(hex(binary_explain_response(44, explanation(), 3, 19, 0.75, 3)),
            "71000000052c00000000000000df0ffd84454a93400103000000000000001300"
            "000000000000000000000000e83fdf0ffd84454a9340df0ffd84c51893403e42"
            "b30c3cdd8e400000000080709740030004004b64696e00000000002044c00200"
            "4e6200000000000029400100430000000000000840");
  EXPECT_EQ(hex(binary_error_response(45, kErrBadRequest, "bad \"x\"\n")),
            "30000000032d00000000000000000000000000000000000000000000000b0062"
            "61645f726571756573740800626164202278220a");
  EXPECT_EQ(hex(binary_error_response(46, kErrTimeout, "deadline", 20, 1.5)),
            "2c000000032e000000000000001400000000000000000000000000f83f070074"
            "696d656f75740800646561646c696e65");
}

TEST(ServeWireGolden, WrappedAdminReply) {
  EXPECT_EQ(hex(binary_json_frame(pong_response("a1", 4))),
            "2e000000007b226964223a226131222c226f6b223a747275652c22706f6e6722"
            "3a747275652c2276657273696f6e223a347d");
}

TEST(ServeWireGolden, JsonRequests) {
  EXPECT_EQ(predict_request_line("q1", transfer()),
            R"({"id":"q1","src":3,"dst":7,"bytes":50000000000,"files":20,)"
            R"("dirs":2,"concurrency":8,"parallelism":4})"
            "\n");
  EXPECT_EQ(predict_request_line("q2", transfer(), busy_load(), 250),
            R"({"id":"q2","src":3,"dst":7,"bytes":50000000000,"files":20,)"
            R"("dirs":2,"concurrency":8,"parallelism":4,"deadline_ms":250,)"
            R"("load":{"k_sout":1.5,"k_sin":2.25,"k_dout":3.125,"k_din":4,)"
            R"("g_src":0.5,"g_dst":6.75,"s_sout":7,"s_sin":8.5,"s_dout":9.25,)"
            R"("s_din":10}})"
            "\n");
  EXPECT_EQ(explain_request_line("q3", transfer()),
            R"({"id":"q3","src":3,"dst":7,"bytes":50000000000,"files":20,)"
            R"("dirs":2,"concurrency":8,"parallelism":4,"explain":true})"
            "\n");
  EXPECT_EQ(explain_request_line("q4", transfer(), busy_load(), 250, 3),
            R"({"id":"q4","src":3,"dst":7,"bytes":50000000000,"files":20,)"
            R"("dirs":2,"concurrency":8,"parallelism":4,"deadline_ms":250,)"
            R"("explain":true,"top_k":3,"load":{"k_sout":1.5,"k_sin":2.25,)"
            R"("k_dout":3.125,"k_din":4,"g_src":0.5,"g_dst":6.75,"s_sout":7,)"
            R"("s_sin":8.5,"s_dout":9.25,"s_din":10}})"
            "\n");
}

TEST(ServeWireGolden, PackedRequests) {
  EXPECT_EQ(hex(binary_predict_request(51, transfer())),
            "360000000133000000000000000300000007000000000000e876482742140000"
            "0000000000020000000000000008000000040000000000000000");
  EXPECT_EQ(hex(binary_predict_request(52, transfer(), busy_load(), 250)),
            "860000000134000000000000000300000007000000000000e876482742140000"
            "000000000002000000000000000800000004000000fa00000001000000000000"
            "f83f000000000000024000000000000009400000000000001040000000000000"
            "e03f0000000000001b400000000000001c400000000000002140000000000080"
            "22400000000000002440");
  EXPECT_EQ(hex(binary_explain_request(53, transfer())),
            "380000000435000000000000000300000007000000000000e876482742140000"
            "00000000000200000000000000080000000400000000000000000000");
  EXPECT_EQ(hex(binary_explain_request(54, transfer(), busy_load(), 250, 3)),
            "880000000436000000000000000300000007000000000000e876482742140000"
            "000000000002000000000000000800000004000000fa00000001000000000000"
            "f83f000000000000024000000000000009400000000000001040000000000000"
            "e03f0000000000001b400000000000001c400000000000002140000000000080"
            "224000000000000024400300");
}

}  // namespace
}  // namespace xfl::serve
