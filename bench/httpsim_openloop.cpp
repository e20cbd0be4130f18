// Open-loop httpsim harness: seeded arrival processes (Poisson / bursty
// MMPP, or the closed loop for comparison) against the WEBrick / Rails
// server programs, optionally sharded across independent engines
// (--shards=N with a hash or round-robin request router). Reports
// throughput, drops, and latency/queue-delay percentiles per shard and
// merged; with --trace-out/--metrics-out the per-shard runs land in the
// observability artifacts tagged shard=<i>.
//
// Everything is deterministic: the same --load-seed/--seed pair reproduces
// the arrival schedule, the request log, and the trace byte-for-byte.
#include <algorithm>

#include "bench/harness.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/server_programs.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

void add_result_row(TablePrinter& table, const std::string& name,
                    const httpsim::ServerRunResult& r) {
  table.add_row({name, std::to_string(r.completed + r.dropped + r.shed),
                 std::to_string(r.completed), std::to_string(r.dropped),
                 std::to_string(r.shed), std::to_string(r.retries),
                 TablePrinter::num(r.throughput_rps, 1),
                 TablePrinter::num(r.latency_hist.percentile(50.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(90.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(99.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(99.9), 0),
                 TablePrinter::num(r.queue_mean_cycles, 0),
                 TablePrinter::num(r.queue_hist.percentile(99.0), 0)});
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const std::string machine = flags.get("machine", "zec12");
  const std::string config_name = flags.get("config", "HTM-dynamic");
  const std::string program_name = flags.get("program", "webrick");
  const u64 seed = static_cast<u64>(flags.get_int("seed", 0x6112024));
  const auto driver_cfg =
      or_exit([&] { return httpsim::DriverConfig::from_flags(flags); });
  const auto shard_opts =
      or_exit([&] { return httpsim::ShardOptions::from_flags(flags); });
  Harness h(flags, "httpsim_openloop");
  const auto profile = h.machine(machine);

  const auto configs = paper_configs();
  if (std::find(configs.begin(), configs.end(), config_name) ==
      configs.end()) {
    std::cerr << "error: --config must be one of GIL, HTM-1, HTM-16, "
                 "HTM-256, HTM-dynamic\n";
    return 2;
  }

  std::string program;
  if (program_name == "webrick") {
    program = httpsim::webrick_source();
  } else if (program_name == "rails") {
    program = httpsim::rails_source();
  } else {
    std::cerr << "error: --program must be webrick or rails\n";
    return 2;
  }

  auto cfg = h.config(profile, config_name);
  cfg.seed = seed;
  const auto result = httpsim::run_sharded(
      cfg, program, driver_cfg, shard_opts, h.sink_or_null(),
      h.labels(cfg, {{"workload", program_name},
                     {"config", config_name},
                     {"arrival", std::string(httpsim::arrival_name(
                                     driver_cfg.arrival))}}));

  std::cout << "== httpsim open-loop: " << program_name << " / "
            << profile.machine.name << " / " << config_name
            << " arrival=" << httpsim::arrival_name(driver_cfg.arrival)
            << " rps=" << driver_cfg.rps << " shards=" << shard_opts.shards
            << " router=" << httpsim::router_name(shard_opts.router)
            << " (latencies in cycles) ==\n";
  TablePrinter table({"shard", "scheduled", "completed", "dropped", "shed",
                      "retries", "rps", "p50", "p90", "p99", "p99.9",
                      "queue_mean", "queue_p99"});
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    add_result_row(table, std::to_string(s), result.shards[s]);
  }
  table.add_row({"all",
                 std::to_string(result.completed + result.dropped +
                                result.shed),
                 std::to_string(result.completed),
                 std::to_string(result.dropped),
                 std::to_string(result.shed),
                 std::to_string(result.retries),
                 TablePrinter::num(result.throughput_rps, 1),
                 TablePrinter::num(result.latency_hist.percentile(50.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(90.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(99.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(99.9), 0),
                 TablePrinter::num(result.queue_hist.total() > 0
                                       ? static_cast<double>(
                                             result.queue_hist.sum()) /
                                             result.queue_hist.total()
                                       : 0.0,
                                   0),
                 TablePrinter::num(result.queue_hist.percentile(99.0), 0)});
  emit(table, csv);
  if (shard_opts.breaker.enabled) {
    std::cout << "breaker: spilled=" << result.spilled << " transitions="
              << result.breaker_transitions.size() << "\n";
    for (const auto& tr : result.breaker_transitions) {
      std::cout << "  epoch=" << tr.epoch << " shard=" << tr.shard << " "
                << tr.state << "\n";
    }
  }
  return 0;
}
