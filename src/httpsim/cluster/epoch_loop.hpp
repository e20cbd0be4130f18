// The one epoch loop behind every sharded open-loop serve. It owns the
// seeded schedule and its epoch windows, routing over the active shard
// slots, the boundary policies (breaker spill and health, work stealing,
// autoscaling), per-slot accumulation, the record lines, and the single
// final merge. A Transport runs each epoch's batches: the in-process
// transport here (run_sharded) or the pipe transport of the cluster
// supervisor (run_cluster), which drives one worker process per slot.
// Both serve a batch through serve_slice, so the same batch yields the
// same outcome whichever transport carries it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "httpsim/bench_server.hpp"
#include "httpsim/cluster/protocol.hpp"
#include "httpsim/cluster/supervisor.hpp"

namespace gilfree::obs {
class Sink;
}

namespace gilfree::httpsim::cluster {

/// Serves one batch on a fresh engine (run_open_loop_slice) and turns the
/// result into the loop's per-epoch outcome, counting the requests still
/// unaccepted at the batch's window_end as backlog. `cfg` must already
/// carry shard_id/shard_count and any tracing setup.
SliceOutcome serve_slice(runtime::EngineConfig cfg, const std::string& program,
                         const DriverConfig& driver, BatchMsg batch);

/// Carries one epoch's batches to the slots and their outcomes back. The
/// loop sends every active slot its batch before it receives any outcome,
/// so a transport may serve the batches concurrently; it receives in slot
/// order.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  /// Brings a slot up before its first batch.
  virtual void start(u32 /*slot*/) {}
  /// Takes a slot down after its last batch.
  virtual void stop(u32 /*slot*/) {}
  virtual void send(u32 slot, BatchMsg batch) = 0;
  /// The outcome of the batch last sent to `slot`.
  virtual SliceOutcome receive(u32 slot) = 0;
};

/// Serves each batch in this process when its outcome is received. In a
/// multi-epoch run an empty batch builds no engine; in a single-epoch run
/// every shard gets its one engine run, as run_server would. Engines get
/// shard_id = slot and shard_count = `slots`; with `sink` set each run is
/// labelled `labels` plus shard/shards, and epoch/epochs when epochs > 1.
/// `fault_shard` >= 0 confines `base`'s fault injection to that slot.
/// `base`, `program` and `driver` are held by reference and must outlive
/// the transport.
class InProcessTransport final : public Transport {
 public:
  InProcessTransport(const runtime::EngineConfig& base,
                     const std::string& program, const DriverConfig& driver,
                     u32 slots, u32 epochs, obs::Sink* sink = nullptr,
                     std::map<std::string, std::string> labels = {},
                     i32 fault_shard = -1);

  void send(u32 slot, BatchMsg batch) override;
  SliceOutcome receive(u32 slot) override;

 private:
  const runtime::EngineConfig& base_;
  const std::string& program_;
  const DriverConfig& driver_;
  u32 slots_;
  u32 epochs_;
  obs::Sink* sink_;
  std::map<std::string, std::string> labels_;
  i32 fault_shard_;
  std::vector<BatchMsg> pending_;
};

/// The final shard merge, the one every sharded run ends with. Each
/// result.shards[s] arrives holding its accumulated counters, histograms
/// and last response, and slot_records[s] its request records; this adds
/// each shard's queue mean, throughput and id-sorted log and records, then
/// the totals, makespan, throughput and global-id-ordered log.
void merge_shards(ClusterRunResult& result,
                  std::vector<std::vector<RequestRecord>> slot_records,
                  const std::vector<std::string>& paths, double ghz);

/// Runs `schedule` (pre-generated from `driver`) through `opt.epochs`
/// windows over `transport`. Slots 0..opt.shards-1 start active; steal and
/// autoscale follow `opt`, breakers follow `breaker` (a browned-out slot's
/// keys spill to the next healthy active slot). `sink`, when enabled,
/// receives the breaker / steal / scale events. Deterministic for a fixed
/// schedule: every decision depends only on the schedule and the slices'
/// deterministic outcomes.
ClusterRunResult run_epochs(const std::vector<ScheduledRequest>& schedule,
                            const DriverConfig& driver, double ghz,
                            const ClusterOptions& opt,
                            const BreakerOptions& breaker,
                            Transport& transport, obs::Sink* sink = nullptr);

}  // namespace gilfree::httpsim::cluster
