#include "httpsim/bench_server.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "httpsim/cluster/epoch_loop.hpp"
#include "obs/sink.hpp"

namespace gilfree::httpsim {

namespace {

/// Shared tail of both load models: run the engine over an attached driver
/// and collect the result. `expected` is the number of scheduled requests;
/// every one must complete, be dropped by the admission queue, or be shed
/// by the overload protections (deadlines / CoDel).
ServerRunResult run_one(runtime::EngineConfig cfg, const std::string& program,
                        HttpDriver& driver, u32 expected) {
  runtime::Engine engine(std::move(cfg));
  engine.load_program({program});
  engine.attach_server(&driver);

  ServerRunResult result;
  result.stats = engine.run();
  result.completed = driver.completed();
  result.dropped = driver.dropped();
  result.shed = driver.shed_total();
  result.retries = driver.retries();
  GILFREE_CHECK_MSG(
      result.completed + result.dropped + result.shed == expected,
      "server finished " << result.completed << " + " << result.dropped
                         << " dropped + " << result.shed << " shed of "
                         << expected);
  result.throughput_rps =
      driver.throughput_rps(engine.config().profile.machine.ghz);
  result.queue_mean_cycles = driver.queue_delay().mean();
  result.latency_hist = driver.latency_hist();
  result.queue_hist = driver.queue_hist();
  result.last_response = driver.last_response_time();
  result.request_log = driver.log_to_string();
  result.records = driver.log();
  return result;
}

}  // namespace

void read_shard_flags(const CliFlags& flags, u32& shards, Router& router) {
  const long n = flags.get_int("shards", shards);
  if (n < 1 || n > 64)
    throw std::invalid_argument("--shards must be in [1,64]");
  shards = static_cast<u32>(n);
  router = parse_router(flags.get("router", std::string(router_name(router))));
}

ShardOptions ShardOptions::from_flags(const CliFlags& flags) {
  ShardOptions o;
  read_shard_flags(flags, o.shards, o.router);

  const std::string breaker = flags.get("breaker", "off");
  if (breaker == "on") {
    o.breaker.enabled = true;
  } else if (breaker != "off") {
    throw std::invalid_argument("--breaker must be on or off (got \"" +
                                breaker + "\")");
  }
  const long epochs =
      flags.get_int("breaker-epochs", static_cast<long>(o.breaker.epochs));
  if (epochs < 2 || epochs > 256)
    throw std::invalid_argument("--breaker-epochs must be in [2,256]");
  o.breaker.epochs = static_cast<u32>(epochs);
  const long streak =
      flags.get_int("breaker-streak", static_cast<long>(o.breaker.trip_streak));
  if (streak < 1 || streak > 64)
    throw std::invalid_argument("--breaker-streak must be in [1,64]");
  o.breaker.trip_streak = static_cast<u32>(streak);
  const long probe = flags.get_int("breaker-probe",
                                   static_cast<long>(o.breaker.probe_initial));
  if (probe < 1 || probe > 64)
    throw std::invalid_argument("--breaker-probe must be in [1,64]");
  o.breaker.probe_initial = static_cast<u32>(probe);
  const long probe_max =
      flags.get_int("breaker-probe-max", static_cast<long>(o.breaker.probe_max));
  if (probe_max < probe || probe_max > 256)
    throw std::invalid_argument(
        "--breaker-probe-max must be in [--breaker-probe,256]");
  o.breaker.probe_max = static_cast<u32>(probe_max);
  o.breaker.shed_ratio =
      flags.get_double("breaker-shed-ratio", o.breaker.shed_ratio);
  if (o.breaker.shed_ratio <= 0.0 || o.breaker.shed_ratio > 1.0)
    throw std::invalid_argument("--breaker-shed-ratio must be in (0,1]");
  const long latency = flags.get_int(
      "breaker-latency", static_cast<long>(o.breaker.latency_budget));
  if (latency < 0)
    throw std::invalid_argument("--breaker-latency must be >= 0 cycles");
  o.breaker.latency_budget = static_cast<Cycles>(latency);
  const long fault_shard = flags.get_int(
      "breaker-fault-shard", static_cast<long>(o.breaker.fault_shard));
  if (fault_shard < -1 || fault_shard >= static_cast<long>(o.shards))
    throw std::invalid_argument(
        "--breaker-fault-shard must be -1 or a shard index < --shards");
  o.breaker.fault_shard = static_cast<i32>(fault_shard);
  if (o.breaker.enabled && o.shards < 2)
    throw std::invalid_argument("--breaker=on requires --shards >= 2");
  return o;
}

ServerRunResult run_server(runtime::EngineConfig cfg,
                           const std::string& program_source,
                           const DriverConfig& driver_config) {
  // One VM thread per request attempt plus acceptor/main: a retried request
  // is re-accepted and served by a fresh worker thread.
  cfg.heap.max_threads =
      driver_config.total_requests *
          (1 + driver_config.overload.retry_budget) +
      8;
  if (driver_config.arrival == Arrival::kClosed) {
    ClosedLoopDriver driver(driver_config);
    ServerRunResult r = run_one(std::move(cfg), program_source, driver,
                                driver_config.total_requests);
    GILFREE_CHECK(r.dropped == 0);  // closed loop never overruns the queue
    return r;
  }
  auto schedule =
      make_schedule(driver_config, cfg.profile.machine.ghz);
  OpenLoopDriver driver(driver_config, std::move(schedule));
  return run_one(std::move(cfg), program_source, driver, driver.scheduled());
}

ServerRunResult run_open_loop_slice(runtime::EngineConfig cfg,
                                    const std::string& program_source,
                                    const DriverConfig& driver_config,
                                    std::vector<ScheduledRequest> slice,
                                    std::size_t schedule_total) {
  GILFREE_CHECK(driver_config.arrival != Arrival::kClosed);
  GILFREE_CHECK(schedule_total >= slice.size());
  DriverConfig dcfg = driver_config;
  // A slice's offered rate is its share of the global schedule, so
  // per-slice metrics annotations sum back to the configured --rps.
  if (schedule_total > 0) {
    dcfg.rps = driver_config.rps * static_cast<double>(slice.size()) /
               static_cast<double>(schedule_total);
  }
  cfg.heap.max_threads =
      static_cast<u32>(slice.size()) *
          (1 + driver_config.overload.retry_budget) +
      8;
  OpenLoopDriver driver(dcfg, std::move(slice));
  return run_one(std::move(cfg), program_source, driver, driver.scheduled());
}

cluster::ClusterRunResult run_sharded(
    const runtime::EngineConfig& base, const std::string& program_source,
    const DriverConfig& driver_config, const ShardOptions& options,
    obs::Sink* sink, std::map<std::string, std::string> labels) {
  GILFREE_CHECK(options.shards >= 1 && options.shards <= 64);
  const double ghz = base.profile.machine.ghz;
  if (driver_config.arrival != Arrival::kClosed) {
    const BreakerOptions& bo = options.breaker;
    const auto schedule = make_schedule(driver_config, ghz);
    GILFREE_CHECK(!bo.enabled || !schedule.empty());
    cluster::ClusterOptions opt;
    opt.shards = options.shards;
    opt.router = options.router;
    opt.epochs = bo.enabled ? bo.epochs : 1;
    cluster::InProcessTransport transport(
        base, program_source, driver_config, options.shards, opt.epochs, sink,
        std::move(labels), bo.enabled ? bo.fault_shard : -1);
    return cluster::run_epochs(schedule, driver_config, ghz, opt, bo,
                               transport, sink);
  }

  // A closed loop has no schedule to slice: split the clients and request
  // counts round-robin and run each shard once.
  GILFREE_CHECK_MSG(driver_config.clients >= options.shards,
                    "closed-loop sharding needs >= 1 client per shard");
  cluster::ClusterRunResult out;
  out.slot_used.assign(options.shards, true);
  std::vector<std::vector<RequestRecord>> records(options.shards);
  i64 next_id = driver_config.first_id;
  for (u32 s = 0; s < options.shards; ++s) {
    DriverConfig dcfg = driver_config;
    dcfg.clients = driver_config.clients / options.shards +
                   (s < driver_config.clients % options.shards);
    dcfg.total_requests = driver_config.total_requests / options.shards +
                          (s < driver_config.total_requests % options.shards);
    dcfg.first_id = next_id;
    next_id += dcfg.total_requests;
    runtime::EngineConfig cfg = base;
    cfg.shard_id = s;
    cfg.shard_count = options.shards;
    cfg.heap.max_threads = dcfg.total_requests + 8;
    if (sink != nullptr) {
      auto shard_labels = labels;
      shard_labels["shard"] = std::to_string(s);
      shard_labels["shards"] = std::to_string(options.shards);
      sink->next_labels(std::move(shard_labels));
      cfg.obs_sink = sink;
    }
    ClosedLoopDriver driver(dcfg);
    out.shards.push_back(
        run_one(std::move(cfg), program_source, driver, dcfg.total_requests));
    records[s] = std::move(out.shards.back().records);
  }
  cluster::merge_shards(out, std::move(records), driver_config.paths, ghz);
  return out;
}

}  // namespace gilfree::httpsim
