// Golden digests of the simulated output. For each seeded program of
// testutil_programs.hpp, on both machine profiles under the GIL and the
// HTM-dynamic engine, the FNV-1a 64 of the observability trace bytes and of
// the exported metrics document must equal the committed value.
//
// The other differential tests compare two runs of one build. This one pins
// the simulated output across commits: a change that claims to touch host
// cost only (dispatch, charging, addressing, data-structure layout) must
// leave every digest unchanged. The digests were recorded with the
// interpreter's old host-only metrics fields stripped (the dispatch-mode
// name, and the fused-instruction count, which the document now pins at 0).
// A change that is meant to move simulated output re-records them and says
// why in its change notes.
//
// The sharded serving digests pin the epoch-sliced runs the same way: the
// in-process breaker run (merged log, transition list, spill count) and a
// multi-process fleet with stealing and autoscaling (merged log, decision
// stream). The fleet re-execs this binary as its shard workers, so the test
// brings its own main and dispatches --cluster-worker before gtest sees argv.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "htm/profile.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/cluster/worker.hpp"
#include "httpsim/server_programs.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "testutil_programs.hpp"

namespace gilfree {
namespace {

using runtime::EngineConfig;

struct Golden {
  const char* machine;  ///< "zEC12" or "XeonE3-1275v3".
  u64 program_seed;     ///< testutil::random_program seed.
  u64 trace;            ///< FNV-1a 64 of the trace file bytes.
  u64 metrics;          ///< FNV-1a 64 of metrics_to_json of the run.
};

struct Digests {
  u64 trace = 0;
  u64 metrics = 0;
};

Digests run_digests(EngineConfig cfg, u64 program_seed) {
  obs::ObsConfig oc;
  // Keyed by test name: ctest -j runs this suite's tests as concurrent
  // processes, and a shared path races (write / read-back / remove).
  oc.trace_path =
      ::testing::TempDir() + "golden_digest_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_trace.jsonl";
  Digests d;
  {
    obs::Sink sink(oc);
    cfg.heap.initial_slots = 80'000;
    cfg.obs_sink = &sink;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({testutil::random_program(program_seed)});
    engine.run();
    sink.flush();
    d.metrics = httpsim::cluster::fnv1a64(obs::metrics_to_json(sink.runs()));
  }
  std::ifstream f(oc.trace_path);
  std::stringstream buf;
  buf << f.rdbuf();
  std::remove(oc.trace_path.c_str());
  EXPECT_FALSE(buf.str().empty());
  d.trace = httpsim::cluster::fnv1a64(buf.str());
  return d;
}

template <typename MakeConfig, std::size_t N>
void expect_golden(MakeConfig make, const Golden (&golden)[N],
                   const char* engine) {
  for (const Golden& g : golden) {
    const Digests d =
        run_digests(make(htm::SystemProfile::by_name(g.machine)),
                    g.program_seed);
    const std::string label = std::string(engine) + "/" + g.machine +
                              "/seed " + std::to_string(g.program_seed);
    EXPECT_EQ(d.trace, g.trace) << label << ": trace digest moved";
    EXPECT_EQ(d.metrics, g.metrics) << label << ": metrics digest moved";
  }
}

// The GIL engine emits no transaction events, so its trace holds only the
// run header line and the metrics digest carries the simulated detail.
constexpr Golden kGil[] = {
    {"zEC12", 1, 0x64ce6ccfd09ed43eULL, 0x3ccde6279a5c326aULL},
    {"zEC12", 2, 0x64ce6ccfd09ed43eULL, 0xe38ce2b2a846bc42ULL},
    {"zEC12", 3, 0x64ce6ccfd09ed43eULL, 0x352592e5dd9d998bULL},
    {"XeonE3-1275v3", 1, 0x64ce6ccfd09ed43eULL, 0x83cad3446776c9e2ULL},
    {"XeonE3-1275v3", 2, 0x64ce6ccfd09ed43eULL, 0x2f3ae239e6d6dcd6ULL},
    {"XeonE3-1275v3", 3, 0x64ce6ccfd09ed43eULL, 0xfdc1ad25167bd3b3ULL},
};

constexpr Golden kHtmDynamic[] = {
    {"zEC12", 1, 0x816ddaf0e85b33e7ULL, 0x4b0a1617068633bfULL},
    {"zEC12", 2, 0x6ff3f7a48b735e44ULL, 0x12bcd0493e2c7e08ULL},
    {"zEC12", 3, 0x3b3b773f8783b8b8ULL, 0x82b3bfd9ffaa9d99ULL},
    {"XeonE3-1275v3", 1, 0x85411aca70d24b9aULL, 0xd3d8a9b6fe6d8603ULL},
    {"XeonE3-1275v3", 2, 0x733317b589132fd4ULL, 0x973c056dc4811574ULL},
    {"XeonE3-1275v3", 3, 0x0f746b34ef89f612ULL, 0x52ecf91342b8f504ULL},
};

TEST(GoldenDigest, GilEngineMatchesRecordedDigests) {
  expect_golden([](const htm::SystemProfile& p) { return EngineConfig::gil(p); },
                kGil, "GIL");
}

TEST(GoldenDigest, HtmDynamicEngineMatchesRecordedDigests) {
  expect_golden(
      [](const htm::SystemProfile& p) { return EngineConfig::htm_dynamic(p); },
      kHtmDynamic, "HTM-dynamic");
}

// The Overload.BreakerBrownOutIsByteDeterministicForAFixedSeed run: four
// in-process shards, eight breaker epochs, faults confined to shard 1.
TEST(GoldenDigest, BreakerShardedRunMatchesRecordedDigests) {
  auto cfg = EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.fault.persistent_all_yps = true;
  cfg.fault.gil_handoff_delay_cycles = 150'000;
  cfg.fault.seed = 7;
  httpsim::DriverConfig d;
  d.arrival = httpsim::Arrival::kPoisson;
  d.total_requests = 240;
  d.rps = 2'400'000.0;
  d.overload.deadline = 2'000'000;
  d.overload.retry_budget = 1;
  d.overload.codel = true;
  httpsim::ShardOptions so;
  so.shards = 4;
  so.breaker.enabled = true;
  so.breaker.epochs = 8;
  so.breaker.trip_streak = 2;
  so.breaker.latency_budget = 400'000;
  so.breaker.fault_shard = 1;
  const auto r = httpsim::run_sharded(cfg, httpsim::webrick_source(), d, so);

  std::string transitions;
  for (const auto& t : r.breaker_transitions) {
    transitions += std::to_string(t.epoch) + " " + std::to_string(t.shard) +
                   " " + t.state + "\n";
  }
  EXPECT_EQ(httpsim::cluster::fnv1a64(r.request_log), 0x32e856c28503ab87ULL)
      << "merged request log digest moved";
  EXPECT_EQ(httpsim::cluster::fnv1a64(transitions), 0x6e6ac50a76e80749ULL)
      << "breaker transition digest moved";
  EXPECT_EQ(r.spilled, 4u);
}

// A four-process fleet over a Zipf-skewed key space with stealing and
// autoscaling on: both boundary policies act, and every decision lands in
// the record stream.
TEST(GoldenDigest, StealAutoscaleFleetMatchesRecordedDigests) {
  httpsim::cluster::ClusterSpec spec;
  spec.driver.arrival = httpsim::Arrival::kPoisson;
  spec.driver.rps = 600'000.0;
  spec.driver.total_requests = 1'600;
  spec.driver.key_space = 16;
  spec.driver.zipf = 1.2;
  spec.options.shards = 4;
  spec.options.max_shards = 6;
  spec.options.epochs = 8;
  spec.options.steal = true;
  spec.options.steal_margin = 8;
  spec.options.autoscale = true;
  spec.options.scale_min = 2;
  spec.options.scale_up_depth = 24;
  spec.options.scale_down_depth = 4;
  spec.options.scale_sustain = 1;
  spec.options.scale_idle = 1;
  const auto r = httpsim::cluster::run_cluster(spec);
  EXPECT_GT(r.stolen, 0u);
  u32 ups = 0, downs = 0;
  for (const auto& ev : r.scales) (ev.up ? ups : downs) += 1;
  EXPECT_GE(ups, 1u);
  EXPECT_GE(downs, 1u);

  std::string lines;
  for (const std::string& line : r.record_lines) lines += line + "\n";
  EXPECT_EQ(httpsim::cluster::fnv1a64(r.request_log), 0xbdeecfe29fb705afULL)
      << "merged request log digest moved";
  EXPECT_EQ(httpsim::cluster::fnv1a64(lines), 0x8a94d55ecb0f5d2eULL)
      << "record stream digest moved";
}

}  // namespace
}  // namespace gilfree

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--cluster-worker") == 0)
    return gilfree::httpsim::cluster::worker_main();
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
