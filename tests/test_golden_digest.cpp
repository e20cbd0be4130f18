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
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "htm/profile.hpp"
#include "httpsim/cluster/supervisor.hpp"
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

}  // namespace
}  // namespace gilfree
