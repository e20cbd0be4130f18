#include "httpsim/cluster/worker.hpp"

#include <iostream>
#include <map>
#include <stdexcept>

#include "common/cli.hpp"
#include "httpsim/cluster/epoch_loop.hpp"
#include "httpsim/server_programs.hpp"
#include "obs/sink.hpp"

namespace gilfree::httpsim::cluster {

runtime::EngineConfig engine_config_from_init(const InitMsg& init) {
  runtime::EngineConfig cfg = runtime::engine_config(
      htm::SystemProfile::by_name(init.machine), init.config,
      init.engine_flags);
  cfg.seed = init.engine_seed;
  return cfg;
}

DriverConfig driver_config_from_init(const InitMsg& init) {
  const CliFlags flags = flags_from_strings(init.driver_flags);
  DriverConfig d = DriverConfig::from_flags(flags);
  flags.reject_unknown();
  return d;
}

int worker_main(int in_fd, int out_fd) {
  try {
    const auto init_frame = read_frame(in_fd);
    if (!init_frame || init_frame->kind != FrameKind::kInit) {
      std::cerr << "cluster worker: expected kInit as the first frame\n";
      return 3;
    }
    const InitMsg init = InitMsg::decode(init_frame->payload);
    const runtime::EngineConfig base = engine_config_from_init(init);
    DriverConfig driver = driver_config_from_init(init);
    // Slices arrive pre-generated; the worker must never regenerate (or
    // re-dump) the schedule itself.
    driver.arrival_dump.clear();
    if (init.program != "rails" && init.program != "webrick") {
      std::cerr << "cluster worker: unknown program '" << init.program
                << "'\n";
      return 3;
    }
    const std::string program =
        init.program == "rails" ? rails_source() : webrick_source();

    obs::ObsConfig obs_cfg;
    obs_cfg.trace_path = init.trace_path;
    obs_cfg.metrics_path = init.metrics_path;
    obs::Sink sink(obs_cfg);

    for (;;) {
      const auto frame = read_frame(in_fd);
      if (!frame) {
        std::cerr << "cluster worker: supervisor pipe closed without "
                     "kShutdown\n";
        return 3;
      }
      if (frame->kind == FrameKind::kShutdown) break;
      if (frame->kind != FrameKind::kBatch) {
        std::cerr << "cluster worker: unexpected frame kind "
                  << static_cast<u32>(frame->kind) << "\n";
        return 3;
      }
      BatchMsg batch = BatchMsg::decode(frame->payload);

      ResultMsg result;
      result.epoch = batch.epoch;
      if (batch.slice.empty()) {
        // Idle epoch: stay in lockstep without spinning up an engine.
        write_frame(out_fd, FrameKind::kResult, result.encode());
        continue;
      }

      runtime::EngineConfig cfg = base;
      cfg.shard_id = init.slot;
      cfg.shard_count = init.slots;
      if (sink.enabled()) {
        sink.next_labels({
            {"figure", "httpsim_cluster"},
            {"machine", cfg.profile.machine.name},
            {"workload", init.program},
            {"config", init.config},
            {"arrival", std::string(arrival_name(driver.arrival))},
            {"shard", std::to_string(init.slot)},
            {"shards", std::to_string(init.slots)},
            {"epoch", std::to_string(batch.epoch)},
        });
        cfg.obs_sink = &sink;
      }
      result.outcome =
          serve_slice(std::move(cfg), program, driver, std::move(batch));
      write_frame(out_fd, FrameKind::kResult, result.encode());
    }
    sink.flush();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cluster worker: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace gilfree::httpsim::cluster
