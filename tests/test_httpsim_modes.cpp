// Differential test suite for open-loop httpsim at scale: over machine
// profiles {zEC12, Xeon E3} × engines {GIL, HTM-dynamic} × shard counts
// {1, 2, 4} × arrival processes {poisson, mmpp, closed},
//
//   - the same seed reproduces the run byte-for-byte: request log, trace
//     file, metrics document, and percentile histograms,
//   - the production run_sharded() result equals an independent
//     sharded-but-serialized reference that partitions the same load by
//     hand and runs the shard engines in reverse order (shard isolation /
//     execution-order independence),
//   - --shards=1 is identical to the plain unsharded run_server() path
//     (including the HTM facility's (seed, shard 0) RNG derivation).
#include <gtest/gtest.h>

#include <string>

#include "htm/profile.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/server_programs.hpp"
#include "runtime/engine.hpp"
#include "testutil_httpsim.hpp"

namespace gilfree {
namespace {

using httpsim::Arrival;
using httpsim::DriverConfig;
using httpsim::ShardOptions;
using runtime::EngineConfig;
using testutil::HttpObserved;
using testutil::ReferenceResult;
using testutil::run_observed;
using testutil::run_serialized_reference;

DriverConfig small_load(Arrival arrival) {
  DriverConfig d;
  d.arrival = arrival;
  d.clients = 4;
  d.total_requests = 96;
  d.rps = 200'000.0;  // open loop: brisk but below collapse
  d.burst_factor = 6.0;
  d.burst_on = 400'000;
  d.burst_off = 1'200'000;
  d.queue_limit = 64;
  d.churn = 0.25;
  return d;
}

/// One profile × engine cell of the cube: for every shard count and arrival
/// process, same-seed determinism and serialized-reference equality.
void run_cell(const EngineConfig& base, const std::string& tag) {
  const std::string program = httpsim::webrick_source();
  for (const Arrival arrival :
       {Arrival::kClosed, Arrival::kPoisson, Arrival::kMmpp}) {
    const DriverConfig d = small_load(arrival);
    for (const u32 shards : {1u, 2u, 4u}) {
      ShardOptions so;
      so.shards = shards;
      so.router = httpsim::Router::kHash;
      const std::string label = tag + "/" +
                                std::string(httpsim::arrival_name(arrival)) +
                                "/shards=" + std::to_string(shards);

      const HttpObserved a = run_observed(base, program, d, so, tag);
      const HttpObserved b = run_observed(base, program, d, so, tag);
      ASSERT_FALSE(a.trace.empty()) << label;
      EXPECT_EQ(a.result.request_log, b.result.request_log)
          << label << ": same seed must give a byte-identical request log";
      EXPECT_EQ(a.trace, b.trace)
          << label << ": same seed must give a byte-identical trace";
      EXPECT_EQ(a.metrics, b.metrics)
          << label << ": same seed must give identical metrics documents";
      EXPECT_EQ(a.result.latency_hist.to_sparse_string(),
                b.result.latency_hist.to_sparse_string())
          << label;

      // Every scheduled request is accounted for, exactly once.
      EXPECT_EQ(a.result.completed + a.result.dropped, d.total_requests)
          << label;

      const ReferenceResult ref =
          run_serialized_reference(base, program, d, so);
      EXPECT_EQ(a.result.request_log, ref.request_log)
          << label << ": reverse-order serialized reference diverged";
      EXPECT_EQ(a.result.completed, ref.completed) << label;
      EXPECT_EQ(a.result.dropped, ref.dropped) << label;
      EXPECT_EQ(a.result.latency_hist.to_sparse_string(),
                ref.latency_hist.to_sparse_string())
          << label << ": merged percentile histograms diverged";
      EXPECT_EQ(a.result.queue_hist.to_sparse_string(),
                ref.queue_hist.to_sparse_string())
          << label;
      for (u32 s = 0; s < shards; ++s) {
        EXPECT_EQ(a.result.shards[s].stats.total_cycles,
                  ref.stats[s].total_cycles)
            << label << " shard " << s;
        EXPECT_EQ(a.result.shards[s].stats.insns_retired,
                  ref.stats[s].insns_retired)
            << label << " shard " << s;
      }
    }
  }
}

TEST(HttpsimModes, GilZec12Cube) {
  run_cell(EngineConfig::gil(htm::SystemProfile::zec12()), "gil-zec12");
}

TEST(HttpsimModes, GilXeonCube) {
  run_cell(EngineConfig::gil(htm::SystemProfile::xeon_e3()), "gil-xeon");
}

TEST(HttpsimModes, HtmZec12Cube) {
  run_cell(EngineConfig::htm_dynamic(htm::SystemProfile::zec12()),
           "htm-zec12");
}

TEST(HttpsimModes, HtmXeonCube) {
  run_cell(EngineConfig::htm_dynamic(htm::SystemProfile::xeon_e3()),
           "htm-xeon");
}

TEST(HttpsimModes, SingleShardMatchesUnshardedRunServer) {
  // --shards=1 must be the unsharded simulation bit-for-bit: same request
  // log, same engine totals, same percentile histogram. This covers the
  // HtmConfig::shard_id = 0 RNG-derivation identity end to end.
  const std::string program = httpsim::webrick_source();
  for (const Arrival arrival : {Arrival::kClosed, Arrival::kPoisson}) {
    const DriverConfig d = small_load(arrival);
    for (const bool htm_mode : {false, true}) {
      const auto profile = htm::SystemProfile::zec12();
      const EngineConfig base = htm_mode ? EngineConfig::htm_dynamic(profile)
                                         : EngineConfig::gil(profile);
      const std::string label =
          std::string(httpsim::arrival_name(arrival)) +
          (htm_mode ? "/HTM" : "/GIL");

      const auto unsharded = httpsim::run_server(base, program, d);
      ShardOptions so;
      so.shards = 1;
      const auto sharded = httpsim::run_sharded(base, program, d, so);
      ASSERT_EQ(sharded.shards.size(), 1u) << label;
      EXPECT_EQ(sharded.request_log, unsharded.request_log) << label;
      EXPECT_EQ(sharded.shards[0].stats.total_cycles,
                unsharded.stats.total_cycles)
          << label;
      EXPECT_EQ(sharded.shards[0].stats.insns_retired,
                unsharded.stats.insns_retired)
          << label;
      EXPECT_EQ(sharded.latency_hist.to_sparse_string(),
                unsharded.latency_hist.to_sparse_string())
          << label;
      EXPECT_EQ(sharded.completed, unsharded.completed) << label;
    }
  }
}

TEST(HttpsimModes, RouterPartitionsEveryRequestExactlyOnce) {
  DriverConfig d = small_load(Arrival::kPoisson);
  d.total_requests = 500;
  const auto schedule = httpsim::make_schedule(d, 5.5);
  ASSERT_EQ(schedule.size(), 500u);
  for (const httpsim::Router router :
       {httpsim::Router::kHash, httpsim::Router::kRoundRobin}) {
    for (const u32 shards : {1u, 2u, 4u, 7u}) {
      std::vector<u32> counts(shards, 0);
      for (const auto& r : schedule) {
        const u32 s = httpsim::route_request(router, r.id, shards, d.seed);
        ASSERT_LT(s, shards);
        ++counts[s];
      }
      u64 total = 0;
      for (u32 c : counts) total += c;
      EXPECT_EQ(total, schedule.size());
      if (router == httpsim::Router::kRoundRobin) {
        // Perfectly balanced by construction.
        for (u32 c : counts) {
          EXPECT_GE(c, schedule.size() / shards);
          EXPECT_LE(c, schedule.size() / shards + 1);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gilfree
