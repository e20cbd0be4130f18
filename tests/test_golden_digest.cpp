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
// Further pins cover the paths those two tables never reach: the STM tier
// under lazy and eager GIL subscription, HTM read and write overflows at
// SMT-halved capacity, and an injected capacity-clip campaign.
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

Digests run_digests(EngineConfig cfg, const std::string& source,
                    runtime::RunStats* stats = nullptr,
                    std::size_t* spill_blocks = nullptr) {
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
    engine.load_program({source});
    const runtime::RunStats s = engine.run();
    if (stats != nullptr) *stats = s;
    if (spill_blocks != nullptr)
      *spill_blocks = engine.heap().spill_block_count();
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
                    testutil::random_program(g.program_seed));
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

// Pins for the paths the GIL/HTM-dynamic tables above never reach: the STM
// tier's marks, validation and commit publication, the HTM capacity
// overflows, and injected capacity clips. Each pin also asserts that its run
// actually took the path it is there to pin.
struct Pin {
  const char* label;
  u64 trace;
  u64 metrics;
};

runtime::RunStats expect_pin(EngineConfig cfg, const std::string& source,
                             const Pin& pin) {
  runtime::RunStats stats;
  const Digests d = run_digests(std::move(cfg), source, &stats);
  EXPECT_EQ(d.trace, pin.trace) << pin.label << ": trace digest moved";
  EXPECT_EQ(d.metrics, pin.metrics) << pin.label << ": metrics digest moved";
  return stats;
}

// Every span escalates past HTM under a persistent-all campaign, so the
// software tier carries the run (--stm --fault-persistent-yps=all).
EngineConfig stm_persistent(const char* machine, stm::GilSubscription sub) {
  auto cfg = EngineConfig::htm_dynamic(htm::SystemProfile::by_name(machine));
  cfg.stm.enabled = true;
  cfg.stm.subscription = sub;
  cfg.fault.persistent_all_yps = true;
  return cfg;
}

constexpr Pin kStmLazy[] = {
    {"STM-lazy/zEC12/seed 1", 0xab4f227ec79b8422ULL, 0x3f5a9d2a311abdf5ULL},
    {"STM-lazy/XeonE3-1275v3/seed 2", 0xed46781391ae9423ULL,
     0x9b2f1eb873b748e1ULL},
};

constexpr Pin kStmEager[] = {
    {"STM-eager/zEC12/seed 1", 0x891f86f44db080abULL, 0x2ec0eba53b09719bULL},
    {"STM-eager/XeonE3-1275v3/seed 2", 0xc2864a17f8257283ULL,
     0x010b9b861b17df7dULL},
};

void expect_stm_pins(const Pin (&pins)[2], stm::GilSubscription sub) {
  const char* machines[] = {"zEC12", "XeonE3-1275v3"};
  for (int i = 0; i < 2; ++i) {
    const auto s = expect_pin(stm_persistent(machines[i], sub),
                              testutil::random_program(i + 1), pins[i]);
    EXPECT_GT(s.stm.commits, 0u) << pins[i].label;
    EXPECT_GT(s.stm.validated_entries, 0u) << pins[i].label;
  }
}

TEST(GoldenDigest, StmLazyUnderPersistentFaultsMatchesRecordedDigests) {
  expect_stm_pins(kStmLazy, stm::GilSubscription::kLazy);
}

TEST(GoldenDigest, StmEagerUnderPersistentFaultsMatchesRecordedDigests) {
  expect_stm_pins(kStmEager, stm::GilSubscription::kEager);
}

// Eight threads on the four two-way SMT cores of the Xeon profile, so a
// transaction runs at half capacity while its sibling is busy. Each thread
// reads a strided shared array and allocates floats. Both capacities are
// lowered so a test-sized program overflows them; the learning model's
// eager refusals follow the genuine overflows.
constexpr const char* kOverflowProgram = R"(
$data = Array.new(4000, 1)
$out = Array.new(8, 0.0)
ts = []
8.times do |i|
  ts << Thread.new(i) do |tid|
    big = Array.new(2000, tid)
    acc = 0.0
    k = 0
    while k < 300
      acc = acc + $data[(k * 13) % 4000] + 0.1 + 0.2 + 0.3 + 0.4 + 0.5
      k += 1
    end
    $out[tid] = acc + big[1999]
  end
end
ts.each do |t|
  t.join
end
__record("v", $out[0] + $out[7])
)";

TEST(GoldenDigest, XeonSmtOverflowRunMatchesRecordedDigests) {
  auto cfg = EngineConfig::htm_fixed(htm::SystemProfile::xeon_e3(), 16);
  cfg.profile.htm.max_read_lines = 256;
  cfg.profile.htm.max_write_lines = 16;
  const Pin pin = {"HTM-16/XeonE3-1275v3/overflow", 0x7717a239d1ab33c9ULL,
                   0x286dbc84c8cf0b02ULL};
  const auto s = expect_pin(std::move(cfg), kOverflowProgram, pin);
  const auto aborts = [&s](htm::AbortReason r) {
    return s.htm.aborts_by_reason[static_cast<int>(r)];
  };
  EXPECT_GT(aborts(htm::AbortReason::kOverflowRead), 0u);
  // Genuine write overflows, not only the learning model's eager refusals.
  EXPECT_GT(aborts(htm::AbortReason::kOverflowWrite), s.htm.eager_aborts);
  EXPECT_GT(s.htm.eager_aborts, 0u);
}

// A capacity-loss campaign (--fault-capacity-factor): overflows the clipped
// limit would not have hit at full capacity count as injected clips.
TEST(GoldenDigest, CapacityClipCampaignMatchesRecordedDigests) {
  auto cfg = EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.fault.capacity_factor = 0.1;
  cfg.fault.seed = 7;
  const Pin pin = {"HTM-dynamic/zEC12/capacity 0.1", 0x25c18bffef8813b7ULL,
                   0xe756d8b55513b5b5ULL};
  const auto s = expect_pin(std::move(cfg), testutil::random_program(3), pin);
  EXPECT_GT(s.faults.count(fault::FaultKind::kCapacity), 0u);
}

// Four threads keep 48 arrays of 120 000 slots alive, 6.3M slots of
// power-of-two spill chunks against a 4M-slot first block, so the spill
// region grows (a non-transactional "malloc-grow" abort under HTM). The
// capacity of each block counts from its line-aligned base, so where the
// host maps the block cannot move the growth point.
constexpr const char* kSpillGrowthProgram = R"(
$keep = []
ts = []
4.times do |i|
  ts << Thread.new(i) do |tid|
    j = 0
    while j < 12
      $keep << Array.new(120000, tid)
      j += 1
    end
  end
end
ts.each do |t|
  t.join
end
__record("v", $keep.size)
)";

TEST(GoldenDigest, SpillRegionGrowthRunMatchesRecordedDigests) {
  const Pin pin = {"HTM-dynamic/zEC12/spill growth", 0xa9cd1b66c420c857ULL,
                   0x20689a87846e5c8dULL};
  std::size_t spill_blocks = 0;
  const Digests d =
      run_digests(EngineConfig::htm_dynamic(htm::SystemProfile::zec12()),
                  kSpillGrowthProgram, nullptr, &spill_blocks);
  EXPECT_EQ(d.trace, pin.trace) << pin.label << ": trace digest moved";
  EXPECT_EQ(d.metrics, pin.metrics) << pin.label << ": metrics digest moved";
  EXPECT_GT(spill_blocks, 1u) << pin.label << ": the spill region never grew";
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
