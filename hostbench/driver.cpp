// Host-cost benchmark driver. It times the simulator's public entry points
// from outside — workloads::sources_for, runtime::Engine (constructor,
// load_program, run), httpsim::make_schedule and
// httpsim::cluster::run_cluster — and prints one JSON line per measured
// operation, with the outcome of its output check. hostbench/run.py builds
// this binary, derives the seeds, checks determinism and aggregates the
// lines into the benchmark's metrics; hostbench/README.md describes the
// workloads and the metrics.
//
//   $ hostbench_driver --workload=bt-htm --seconds=10 --engine-seeds=7,8
//   $ hostbench_driver --workload=serve-fleet --seconds=10 --engine-seeds=7
//         --load-seeds=9 --trace-out=spans.jsonl
//
// Op i runs with the (i mod K)-th of the K seeds given (engine seed, and on
// serve-fleet the paired load seed). --expect-verify=X replaces the
// committed BT checksum, to show that the check fails ops.
//
// Lines on stdout, in this order:
//   {"kind":"probe", ...}  the host speed probe (see host_probe)
//   {"kind":"setup", ...}  one per set-up probe (Engine ctor + load_program)
//   {"kind":"probe", ...}
//   {"kind":"op", ...}     one per operation: a BT run or a fleet serve,
//   {"kind":"probe", ...}  each followed by a host speed probe
//   {"kind":"end", ...}    peak RSS of this process and its reaped workers
// With --trace-out=PATH the driver also records spans (name, start, end,
// parent, run id) around every public call, keeps them in memory and writes
// them to PATH as JSON lines when it ends. On serve-fleet the traced run
// also sets the cluster's artifact stem (PATH + ".op<i>"), so every shard
// process writes its metrics document next to PATH.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "httpsim/client_driver.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/cluster/worker.hpp"
#include "httpsim/server_programs.hpp"
#include "runtime/engine.hpp"
#include "workloads/workload.hpp"

using namespace gilfree;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// JSON number with every significant digit (the aggregator compares
/// simulated quantities exactly).
std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Flat JSON object builder for the one-line records.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    return raw(key, std::isfinite(v) ? jnum(v) : "null");
  }
  JsonLine& count(const std::string& key, u64 v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(key, q + "\"");
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::string run;  ///< "setup", "op<i>" or "schedule".
  int parent = -1;  ///< Index into the span list; -1 = root.
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder; a disabled recorder costs one branch per call.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int open(const std::string& name, const std::string& run, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, run, parent, seconds_since(t0_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonLine()
                 .count("id", i)
                 .raw("parent", std::to_string(s.parent))
                 .str("run", s.run)
                 .str("name", s.name)
                 .num("start_s", s.start_s)
                 .num("end_s", s.end_s)
                 .str()
          << "\n";
    }
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class Scope {
 public:
  Scope(Spans& spans, const std::string& name, const std::string& run,
        int parent)
      : spans_(spans), id_(spans.open(name, run, parent)) {}
  ~Scope() { spans_.close(id_); }
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// --- host resource accounting -------------------------------------------------

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User and system time of this process plus every reaped child (the
/// cluster's shard workers are reaped inside run_cluster).
CpuTimes cpu_now() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return {tv_seconds(self.ru_utime) + tv_seconds(children.ru_utime),
          tv_seconds(self.ru_stime) + tv_seconds(children.ru_stime)};
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// --- host speed probe ----------------------------------------------------------

volatile u64 g_probe_sink;

/// Seconds a fixed piece of CPU-bound work takes: eight independent
/// multiply-add streams, then a small switch-dispatch loop that loads and
/// stores into a 256 KiB table. The host is shared, and its speed drifts by
/// tens of percent over tens of seconds; this probe's time follows that
/// drift closely. It calls no simulator code, so a change to src/ cannot
/// move it. run.py scales host times by the probe's nominal time over the
/// probe times measured around them.
double host_probe() {
  static const std::vector<u8> code = [] {
    std::vector<u8> c(64);
    u64 x = 42;
    for (u8& op : c) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      op = static_cast<u8>((x >> 33) % 6);
    }
    return c;
  }();
  static std::vector<i64> table(1 << 15);
  const auto t0 = Clock::now();
  u64 lanes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (u32 k = 0; k < 8000000; ++k)
    for (u32 j = 0; j < 8; ++j)
      lanes[j] = lanes[j] * 6364136223846793005ULL + j;
  const u64 mask = table.size() - 1;
  i64 acc = 0, r1 = 1, r2 = 3;
  u32 pc = 0;
  for (u32 k = 0; k < 15000000; ++k) {
    switch (code[pc]) {
      case 0: acc += r1; break;
      case 1: r1 = table[static_cast<u64>(acc ^ r2) & mask]; break;
      case 2: table[static_cast<u64>(r1 + k) & mask] = acc; break;
      case 3: r2 = (acc & 1) ? r2 + acc : r2 - 3; break;
      case 4: acc = acc * 31 + r2; break;
      default: r1 ^= r2 << 1; break;
    }
    pc = (pc + 1 + static_cast<u32>(acc & 1)) & 63;
  }
  g_probe_sink = lanes[0] ^ lanes[7] ^ static_cast<u64>(acc);
  return seconds_since(t0);
}

void print_probe() {
  std::cout << JsonLine().str("kind", "probe").num("s", host_probe()).str()
            << std::endl;
}

// --- workloads ---------------------------------------------------------------

// BT runs on 12 simulated threads (the Fig. 5 point). Its scale per workload
// keeps one op between about 1 and 3 host seconds.
constexpr u32 kBtThreads = 12;
// 3 shard processes leave the supervisor a core on a 4-core host. 12 000
// requests leave twelve samples beyond p99.9; at 600 000 requests per
// simulated second over 24 epochs no request is dropped or shed.
constexpr u32 kFleetShards = 3;
constexpr u32 kFleetRequests = 12000;
constexpr u32 kFleetEpochs = 24;
constexpr double kFleetRps = 600000.0;
constexpr u32 kFleetKeys = 16;
constexpr double kFleetZipf = 1.2;
// Set-up probes per driver process; run.py reports their median.
constexpr u32 kSetupProbes = 9;

u32 bt_scale(const std::string& workload) {
  return workload == "bt-gil" ? 4 : 1;
}

/// The `verify` checksum of BT run on one thread under the GIL engine, per
/// scale. Every engine and thread count must reproduce it: BT's result does
/// not depend on the schedule.
double bt_checksum(u32 scale) {
  switch (scale) {
    case 1: return 155.4498333620981;
    case 4: return 623.9820333900033;
  }
  throw std::logic_error("no committed BT checksum for this scale");
}

struct Options {
  std::string workload;
  double seconds = 10.0;
  u32 min_ops = 1;
  u32 max_ops = 1000;
  /// Committed defaults: the repository's usual engine and load seed.
  std::vector<u64> engine_seeds{0x6112024};
  std::vector<u64> load_seeds{0x6112024};
  u64 engine_seed = 0;  ///< The current op's seeds (for_op).
  u64 load_seed = 0;
  u32 scale = 1;               ///< BT
  double expect_verify = 0.0;  ///< BT
  std::string trace_out;
};

/// Engine flag families per workload, in the cluster Init currency.
std::vector<std::string> engine_flags(const std::string& workload) {
  if (workload == "bt-stm")
    return {"--stm", "--gil-subscription=lazy", "--fault-persistent-yps=all"};
  return {};
}

httpsim::cluster::InitMsg init_for(const Options& o) {
  httpsim::cluster::InitMsg init;
  init.machine = "zec12";
  init.config = o.workload == "bt-gil" ? "GIL" : "HTM-dynamic";
  init.program = "webrick";
  init.engine_seed = o.engine_seed;
  init.engine_flags = engine_flags(o.workload);
  return init;
}

runtime::EngineConfig engine_config(const Options& o) {
  return httpsim::cluster::engine_config_from_init(init_for(o));
}

httpsim::cluster::ClusterSpec fleet_spec(const Options& o) {
  httpsim::cluster::ClusterSpec spec;
  const auto init = init_for(o);
  spec.machine = init.machine;
  spec.config = init.config;
  spec.program = init.program;
  spec.engine_seed = init.engine_seed;
  spec.engine_flags = init.engine_flags;
  spec.driver.arrival = httpsim::Arrival::kPoisson;
  spec.driver.rps = kFleetRps;
  spec.driver.total_requests = kFleetRequests;
  spec.driver.seed = o.load_seed;
  spec.driver.key_space = kFleetKeys;
  spec.driver.zipf = kFleetZipf;
  spec.options.shards = kFleetShards;
  spec.options.epochs = kFleetEpochs;
  // Rank-striped routing pins the hot keys to fixed shards, so the skew the
  // steal pass rebalances has the same shape under every load seed.
  spec.options.router = httpsim::Router::kRoundRobin;
  spec.options.steal = true;
  return spec;
}

/// The VM thread budget run_open_loop_slice gives one epoch slice.
u32 slice_thread_budget(const httpsim::DriverConfig& d) {
  const u32 slice = kFleetRequests / (kFleetEpochs * kFleetShards);
  return slice * (1 + d.overload.retry_budget) + 8;
}

/// An engine after its constructor and load_program, each timed and traced
/// under `parent`; `cfg` already carries the workload's configuration.
struct SetUp {
  std::unique_ptr<runtime::Engine> engine;
  double ctor_s = 0.0;
  double load_s = 0.0;
};

SetUp set_up(runtime::EngineConfig cfg, const std::vector<std::string>& sources,
             Spans& spans, const std::string& run, int parent) {
  SetUp s;
  auto t0 = Clock::now();
  {
    Scope span(spans, "runtime.engine_ctor", run, parent);
    s.engine = std::make_unique<runtime::Engine>(std::move(cfg));
  }
  s.ctor_s = seconds_since(t0);
  t0 = Clock::now();
  {
    Scope span(spans, "vm.load_program", run, parent);
    s.engine->load_program(sources);
  }
  s.load_s = seconds_since(t0);
  return s;
}

std::string run_name(u32 i) { return "op" + std::to_string(i); }

// MiniRuby's clock_us, which BT's timed region reads, ticks once per 3 500
// simulated cycles (vm/builtins.cpp), whatever the machine profile's clock.
constexpr double kClockUsCycles = 3500.0;

void add_bt_sim(JsonLine& j, const runtime::RunStats& st) {
  const double elapsed_us = st.results.at("elapsed_us");
  j.num("elapsed_us", elapsed_us)
      .num("elapsed_cycles", elapsed_us * kClockUsCycles)
      .num("verify", st.results.at("verify"))
      .count("total_cycles", st.total_cycles)
      .count("insns_retired", st.insns_retired);
  for (std::size_t r = 1; r < htm::kNumAbortReasons; ++r) {
    const auto name = htm::abort_reason_name(static_cast<htm::AbortReason>(r));
    j.count("htm.aborts." + std::string(name), st.htm.aborts_by_reason[r]);
  }
  j.count("htm.begins", st.htm.begins)
      .count("htm.commits", st.htm.commits)
      .count("cycles.begin_end", st.breakdown.begin_end)
      .count("cycles.tx_success", st.breakdown.tx_success)
      .count("cycles.tx_aborted", st.breakdown.tx_aborted)
      .count("cycles.stm_work", st.breakdown.stm_work)
      .count("cycles.gil_held", st.breakdown.gil_held)
      .count("cycles.gil_wait", st.breakdown.gil_wait)
      .count("cycles.total", st.breakdown.total())
      .count("tle.length_adjustments", st.length_adjustments)
      .num("tle.fraction_length_one", st.fraction_length_one)
      .count("tle.gil_fallbacks", st.gil_fallbacks)
      .count("tle.quarantine_enters", st.quarantine_enters)
      .count("tle.quarantine_exits", st.quarantine_exits)
      .count("stm.begins", st.stm.begins)
      .count("stm.commits", st.stm.commits)
      .count("stm.escalations", st.stm_escalations)
      .count("stm.gil_fallbacks", st.stm_gil_fallbacks)
      .count("stm.validated_entries", st.stm.validated_entries)
      .count("stm.zombie_kills", st.stm.zombie_kills)
      .count("fault.injected", st.faults.total())
      .count("gil.acquisitions", st.gil.acquisitions)
      .count("gil.contended_acquisitions", st.gil.contended_acquisitions)
      .count("vm.allocations", st.interp.allocations)
      .count("vm.ic_method_hits", st.interp.ic_method_hits)
      .count("vm.ic_method_misses", st.interp.ic_method_misses)
      .count("vm.fused_instructions", st.interp.fused_instructions)
      .count("vm.gc_collections", st.gc.collections)
      .count("vm.minor_collections", st.gc.minor_collections);
}

/// One BT run: Engine ctor, load_program, run. Returns the op's JSON line.
std::string bt_op(const Options& o, u32 i, Spans& spans) {
  const std::string run = run_name(i);
  const Scope op(spans, "op", run, -1);
  runtime::EngineConfig cfg = engine_config(o);
  std::vector<std::string> sources;
  {
    Scope span(spans, "workloads.sources_for", run, op.id());
    sources = workloads::sources_for(workloads::npb("BT"), kBtThreads, o.scale);
  }
  const CpuTimes c0 = cpu_now();
  const auto t0 = Clock::now();
  SetUp s = set_up(std::move(cfg), sources, spans, run, op.id());
  const auto t = Clock::now();
  runtime::RunStats st;
  {
    Scope span(spans, "runtime.run", run, op.id());
    st = s.engine->run();
  }
  const double run_s = seconds_since(t);
  s.engine.reset();
  const double wall_s = seconds_since(t0);
  const CpuTimes c1 = cpu_now();

  std::string fail;
  if (st.results.count("elapsed_us") != 1 || st.results.count("verify") != 1) {
    fail = "BT did not record elapsed_us and verify";
  } else {
    const double v = st.results.at("verify");
    if (std::abs(v - o.expect_verify) >
        std::abs(o.expect_verify) * 1e-9 + 1e-9)
      fail = "verify " + jnum(v) + " != expected " + jnum(o.expect_verify);
  }
  JsonLine sim;
  if (fail.empty()) add_bt_sim(sim, st);
  return JsonLine()
      .str("kind", "op")
      .count("i", i)
      .count("seed", i % o.engine_seeds.size())
      .boolean("traced", spans.enabled())
      .num("wall_s", wall_s)
      .num("user_s", c1.user_s - c0.user_s)
      .num("sys_s", c1.sys_s - c0.sys_s)
      .num("ctor_s", s.ctor_s)
      .num("load_s", s.load_s)
      .num("run_s", run_s)
      .count("units", 1)
      .boolean("ok", fail.empty())
      .str("fail", fail)
      .raw("sim", sim.str())
      .str();
}

/// Nearest-rank percentile of a sorted sample.
u64 percentile(const std::vector<u64>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// One fleet serve: run_cluster over the seeded open-loop schedule.
std::string fleet_op(const Options& o, u32 i, Spans& spans,
                     const std::string& artifact_stem) {
  const std::string run = run_name(i);
  httpsim::cluster::ClusterSpec spec = fleet_spec(o);
  spec.artifact_stem = artifact_stem;
  const CpuTimes c0 = cpu_now();
  const auto t0 = Clock::now();
  httpsim::cluster::ClusterRunResult r;
  std::string fail;
  {
    const Scope op(spans, "op", run, -1);
    const Scope span(spans, "httpsim.cluster.run_cluster", run, op.id());
    try {
      r = httpsim::cluster::run_cluster(spec);
    } catch (const std::exception& e) {
      fail = std::string("run_cluster: ") + e.what();
    }
  }
  const double wall_s = seconds_since(t0);
  const CpuTimes c1 = cpu_now();

  const u64 scheduled = kFleetRequests;
  if (fail.empty() && r.completed + r.dropped + r.shed != scheduled)
    fail = "completed+dropped+shed != scheduled";
  const u64 lost = fail.empty() ? r.dropped + r.shed : scheduled;

  JsonLine sim;
  if (fail.empty()) {
    std::vector<u64> latency;
    std::vector<u64> queue;
    for (const auto& shard : r.shards) {
      for (const auto& rec : shard.records) {
        if (rec.outcome != httpsim::RequestOutcome::kOk) continue;
        latency.push_back(rec.responded - rec.arrival);
        queue.push_back(rec.accepted - rec.arrival);
      }
    }
    std::sort(latency.begin(), latency.end());
    std::sort(queue.begin(), queue.end());
    // Engines built: one per non-empty (epoch, shard) batch.
    u64 slices = 0;
    for (const std::string& line : r.record_lines) {
      if (line.rfind("{\"ev\":\"dispatch\"", 0) == 0 &&
          line.find(",\"n\":0}") == std::string::npos)
        ++slices;
    }
    sim.count("completed", r.completed)
        .count("dropped", r.dropped)
        .count("shed", r.shed)
        .count("retries", r.retries)
        .count("elapsed_cycles", r.makespan)
        .str("log_fnv", std::to_string(httpsim::cluster::fnv1a64(r.request_log)))
        .count("latency_p99_cycles", percentile(latency, 99.0))
        .count("latency_p999_cycles", percentile(latency, 99.9))
        .count("queue_p99_cycles", percentile(queue, 99.0))
        .count("stolen", r.stolen)
        .count("steals", r.steals.size())
        .count("peak_depth", r.peak_depth)
        .count("max_active", r.max_active)
        .count("slices", slices);
  }
  return JsonLine()
      .str("kind", "op")
      .count("i", i)
      .count("seed", i % o.engine_seeds.size())
      .boolean("traced", spans.enabled())
      .str("artifact_stem", artifact_stem)
      .num("wall_s", wall_s)
      .num("user_s", c1.user_s - c0.user_s)
      .num("sys_s", c1.sys_s - c0.sys_s)
      .count("units", scheduled)
      .count("lost", lost)
      .boolean("ok", fail.empty() && lost == 0)
      .str("fail", fail.empty() && lost > 0 ? "dropped or shed requests" : fail)
      .raw("sim", sim.str())
      .str();
}

/// Set-up probes: the engine one op of this workload builds first. On the
/// fleet that is one epoch slice's engine, with run_open_loop_slice's VM
/// thread budget.
void setup_probes(const Options& o, Spans& spans) {
  runtime::EngineConfig cfg = engine_config(o);
  std::vector<std::string> sources;
  if (o.workload == "serve-fleet") {
    const auto spec = fleet_spec(o);
    cfg.heap.max_threads = slice_thread_budget(spec.driver);
    sources = {httpsim::webrick_source()};
  } else {
    sources = workloads::sources_for(workloads::npb("BT"), kBtThreads, o.scale);
  }
  for (u32 k = 0; k < kSetupProbes; ++k) {
    const Scope probe(spans, "runtime.setup", "setup", -1);
    const SetUp s = set_up(cfg, sources, spans, "setup", probe.id());
    std::cout << JsonLine()
                     .str("kind", "setup")
                     .num("ctor_s", s.ctor_s)
                     .num("load_s", s.load_s)
                     .str()
              << "\n";
  }
  if (o.workload == "serve-fleet" && spans.enabled()) {
    // make_schedule runs inside run_cluster; the traced run times one
    // standalone call so the schedule generator's cost shows as a span.
    Scope span(spans, "httpsim.make_schedule", "schedule", -1);
    httpsim::make_schedule(fleet_spec(o).driver, cfg.profile.machine.ghz);
  }
}

std::vector<u64> parse_seeds(const std::string& list) {
  std::vector<u64> seeds;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    seeds.push_back(std::stoull(list.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return seeds;
}

/// The options of op i: its share of the seed lists.
Options for_op(const Options& o, u32 i) {
  Options op = o;
  op.engine_seed = o.engine_seeds[i % o.engine_seeds.size()];
  op.load_seed = o.load_seeds[i % o.load_seeds.size()];
  return op;
}

Options parse(const CliFlags& flags) {
  Options o;
  o.workload = flags.get("workload", "");
  if (o.workload != "bt-htm" && o.workload != "bt-gil" &&
      o.workload != "bt-stm" && o.workload != "serve-fleet")
    throw std::invalid_argument(
        "--workload must be bt-htm, bt-gil, bt-stm or serve-fleet");
  o.seconds = flags.get_double("seconds", o.seconds);
  o.min_ops = static_cast<u32>(flags.get_int("min-ops", o.min_ops));
  o.max_ops = static_cast<u32>(flags.get_int("max-ops", o.max_ops));
  if (flags.has("engine-seeds"))
    o.engine_seeds = parse_seeds(flags.get("engine-seeds", ""));
  if (flags.has("load-seeds"))
    o.load_seeds = parse_seeds(flags.get("load-seeds", ""));
  if (o.load_seeds.size() != o.engine_seeds.size() && o.load_seeds.size() != 1)
    throw std::invalid_argument("--load-seeds must pair with --engine-seeds");
  o.scale = bt_scale(o.workload);
  o.expect_verify = flags.get_double("expect-verify", bt_checksum(o.scale));
  o.trace_out = flags.get("trace-out", "");
  flags.reject_unknown();
  if (o.min_ops < 1 || o.max_ops < o.min_ops)
    throw std::invalid_argument("out-of-range --min-ops/--max-ops");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // run_cluster re-execs /proc/self/exe with this marker for every shard
  // worker; dispatch to the worker body before any flag parsing.
  if (argc > 1 && std::strcmp(argv[1], "--cluster-worker") == 0)
    return httpsim::cluster::worker_main();

  Options o;
  try {
    o = parse(CliFlags(argc, argv, /*throw_errors=*/true));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  Spans spans(!o.trace_out.empty());
  const bool fleet = o.workload == "serve-fleet";

  print_probe();
  setup_probes(for_op(o, 0), spans);
  print_probe();

  // Ops run until the next one would overrun the budget (estimated from
  // the slowest op so far), within [min_ops, max_ops].
  const auto t0 = Clock::now();
  double slowest = 0.0;
  for (u32 i = 0; i < o.max_ops; ++i) {
    if (i >= o.min_ops && seconds_since(t0) + slowest > o.seconds) break;
    const auto t = Clock::now();
    const Options op = for_op(o, i);
    const std::string stem =
        spans.enabled() ? o.trace_out + ".op" + std::to_string(i) : "";
    std::cout << (fleet ? fleet_op(op, i, spans, stem) : bt_op(op, i, spans))
              << std::endl;
    print_probe();
    slowest = std::max(slowest, seconds_since(t));
  }
  std::cout << JsonLine()
                   .str("kind", "end")
                   .num("peak_rss_mb", peak_rss_mb())
                   .str()
            << std::endl;
  if (spans.enabled()) spans.write(o.trace_out);
  return 0;
}
