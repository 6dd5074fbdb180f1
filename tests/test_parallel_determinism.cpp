// Cross-thread-count determinism contracts (tier 2).
//
// The parallel contention sweep promises bit-identical results regardless
// of how many workers it uses: threading splits work by endpoint over
// privately-owned outputs, never by interleaving accumulation. This test
// pins that contract by comparing serial, two-worker, and
// hardware-concurrency runs.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "features/contention.hpp"
#include "logs/log_store.hpp"

namespace xfl {
namespace {

logs::LogStore synthetic_log(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  logs::LogStore log;
  for (std::size_t i = 0; i < n; ++i) {
    logs::TransferRecord r;
    r.id = i + 1;
    r.src = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    r.dst = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    if (r.dst == r.src) r.dst = (r.src + 1) % 20;
    r.start_s = rng.uniform(0.0, 1.0e5);
    r.end_s = r.start_s + rng.uniform(10.0, 2000.0);
    r.bytes = rng.lognormal(23.0, 2.0);
    r.files = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 500));
    r.dirs = 1;
    r.concurrency = 1 + static_cast<int>(rng.uniform_int(0, 7));
    r.parallelism = 1 + static_cast<int>(rng.uniform_int(0, 7));
    log.append(r);
  }
  return log;
}

TEST(ParallelDeterminism, ContentionSweepMatchesSerialExactly) {
  const auto log = synthetic_log(2500, 17);
  const auto serial = features::compute_contention(log, 1);
  ASSERT_EQ(serial.size(), log.size());
  for (const int threads : {2, 0}) {  // 0 = hardware concurrency.
    const auto parallel = features::compute_contention(log, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].k_sout, parallel[i].k_sout) << "record " << i;
      EXPECT_EQ(serial[i].k_sin, parallel[i].k_sin) << "record " << i;
      EXPECT_EQ(serial[i].k_dout, parallel[i].k_dout) << "record " << i;
      EXPECT_EQ(serial[i].k_din, parallel[i].k_din) << "record " << i;
      EXPECT_EQ(serial[i].g_src, parallel[i].g_src) << "record " << i;
      EXPECT_EQ(serial[i].g_dst, parallel[i].g_dst) << "record " << i;
      EXPECT_EQ(serial[i].s_sout, parallel[i].s_sout) << "record " << i;
      EXPECT_EQ(serial[i].s_sin, parallel[i].s_sin) << "record " << i;
      EXPECT_EQ(serial[i].s_dout, parallel[i].s_dout) << "record " << i;
      EXPECT_EQ(serial[i].s_din, parallel[i].s_din) << "record " << i;
    }
  }
}

}  // namespace
}  // namespace xfl
