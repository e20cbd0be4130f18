#include "httpsim/cluster/supervisor.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>

#include "common/cli.hpp"
#include "httpsim/cluster/epoch_loop.hpp"
#include "httpsim/cluster/worker.hpp"

namespace gilfree::httpsim::cluster {

ClusterOptions ClusterOptions::from_flags(const CliFlags& flags) {
  ClusterOptions o;
  read_shard_flags(flags, o.shards, o.router);
  const long shards = o.shards;
  const long max_shards =
      flags.get_int("scale-max", static_cast<long>(o.max_shards));
  if (max_shards != 0 && (max_shards < shards || max_shards > 64))
    throw std::invalid_argument("--scale-max must be 0 or in [--shards,64]");
  o.max_shards = static_cast<u32>(max_shards);
  const long epochs =
      flags.get_int("cluster-epochs", static_cast<long>(o.epochs));
  if (epochs < 1 || epochs > 4096)
    throw std::invalid_argument("--cluster-epochs must be in [1,4096]");
  o.epochs = static_cast<u32>(epochs);

  const std::string steal = flags.get("steal", o.steal ? "on" : "off");
  if (steal == "on") {
    o.steal = true;
  } else if (steal == "off") {
    o.steal = false;
  } else {
    throw std::invalid_argument("--steal must be on or off (got \"" + steal +
                                "\")");
  }
  const long margin =
      flags.get_int("steal-margin", static_cast<long>(o.steal_margin));
  if (margin < 1) throw std::invalid_argument("--steal-margin must be >= 1");
  o.steal_margin = static_cast<u32>(margin);
  const long batch =
      flags.get_int("steal-batch", static_cast<long>(o.steal_batch));
  if (batch < 1) throw std::invalid_argument("--steal-batch must be >= 1");
  o.steal_batch = static_cast<u32>(batch);
  const long rounds =
      flags.get_int("steal-rounds", static_cast<long>(o.steal_rounds));
  if (rounds < 1 || rounds > 1024)
    throw std::invalid_argument("--steal-rounds must be in [1,1024]");
  o.steal_rounds = static_cast<u32>(rounds);

  const std::string scale = flags.get("autoscale", o.autoscale ? "on" : "off");
  if (scale == "on") {
    o.autoscale = true;
  } else if (scale == "off") {
    o.autoscale = false;
  } else {
    throw std::invalid_argument("--autoscale must be on or off (got \"" +
                                scale + "\")");
  }
  const long scale_min =
      flags.get_int("scale-min", static_cast<long>(o.scale_min));
  if (scale_min < 1 || scale_min > shards)
    throw std::invalid_argument("--scale-min must be in [1,--shards]");
  o.scale_min = static_cast<u32>(scale_min);
  const long up_depth =
      flags.get_int("scale-up-depth", static_cast<long>(o.scale_up_depth));
  if (up_depth < 1) throw std::invalid_argument("--scale-up-depth must be >= 1");
  o.scale_up_depth = static_cast<u32>(up_depth);
  const long up_p99 =
      flags.get_int("scale-up-p99", static_cast<long>(o.scale_up_p99));
  if (up_p99 < 0) throw std::invalid_argument("--scale-up-p99 must be >= 0");
  o.scale_up_p99 = static_cast<Cycles>(up_p99);
  const long down_depth =
      flags.get_int("scale-down-depth", static_cast<long>(o.scale_down_depth));
  if (down_depth < 0)
    throw std::invalid_argument("--scale-down-depth must be >= 0");
  o.scale_down_depth = static_cast<u32>(down_depth);
  const long sustain =
      flags.get_int("scale-sustain", static_cast<long>(o.scale_sustain));
  if (sustain < 1) throw std::invalid_argument("--scale-sustain must be >= 1");
  o.scale_sustain = static_cast<u32>(sustain);
  const long idle =
      flags.get_int("scale-idle", static_cast<long>(o.scale_idle));
  if (idle < 1) throw std::invalid_argument("--scale-idle must be >= 1");
  o.scale_idle = static_cast<u32>(idle);

  if (o.autoscale && o.slots() <= o.shards && o.scale_min >= o.shards) {
    throw std::invalid_argument(
        "--autoscale=on needs headroom: raise --scale-max above --shards "
        "or lower --scale-min below it");
  }
  return o;
}

std::vector<std::string> ClusterOptions::to_flags() const {
  const ClusterOptions def;
  std::vector<std::string> out;
  if (shards != def.shards)
    out.push_back("--shards=" + std::to_string(shards));
  if (router != def.router)
    out.push_back(std::string("--router=") + std::string(router_name(router)));
  if (max_shards != def.max_shards)
    out.push_back("--scale-max=" + std::to_string(max_shards));
  if (epochs != def.epochs)
    out.push_back("--cluster-epochs=" + std::to_string(epochs));
  if (steal) out.push_back("--steal=on");
  if (steal_margin != def.steal_margin)
    out.push_back("--steal-margin=" + std::to_string(steal_margin));
  if (steal_batch != def.steal_batch)
    out.push_back("--steal-batch=" + std::to_string(steal_batch));
  if (steal_rounds != def.steal_rounds)
    out.push_back("--steal-rounds=" + std::to_string(steal_rounds));
  if (autoscale) out.push_back("--autoscale=on");
  if (scale_min != def.scale_min)
    out.push_back("--scale-min=" + std::to_string(scale_min));
  if (scale_up_depth != def.scale_up_depth)
    out.push_back("--scale-up-depth=" + std::to_string(scale_up_depth));
  if (scale_up_p99 != def.scale_up_p99)
    out.push_back("--scale-up-p99=" + std::to_string(scale_up_p99));
  if (scale_down_depth != def.scale_down_depth)
    out.push_back("--scale-down-depth=" + std::to_string(scale_down_depth));
  if (scale_sustain != def.scale_sustain)
    out.push_back("--scale-sustain=" + std::to_string(scale_sustain));
  if (scale_idle != def.scale_idle)
    out.push_back("--scale-idle=" + std::to_string(scale_idle));
  return out;
}

u64 fnv1a64(const std::string& s) {
  u64 h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;
  int from_fd = -1;
  bool alive = false;
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Forks + re-execs /proc/self/exe with the --cluster-worker marker, wires
/// the protocol pipes onto the child's stdin/stdout, and sends kInit. All
/// supervisor-side pipe ends are O_CLOEXEC so later workers do not inherit
/// their siblings' channels.
WorkerProc spawn_worker(const InitMsg& init) {
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0)
    throw std::runtime_error("cluster: pipe2 failed");
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("cluster: pipe2 failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw std::runtime_error("cluster: fork failed");
  }
  if (pid == 0) {
    // dup2 clears O_CLOEXEC on the target; the originals close at exec.
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    char arg0[] = "gilfree-cluster-worker";
    char arg1[] = "--cluster-worker";
    char* args[] = {arg0, arg1, nullptr};
    ::execv("/proc/self/exe", args);
    _exit(127);  // exec failed; no flushing of inherited buffers
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  WorkerProc p;
  p.pid = pid;
  p.to_fd = to_child[1];
  p.from_fd = from_child[0];
  p.alive = true;
  write_frame(p.to_fd, FrameKind::kInit, init.encode());
  return p;
}

/// Graceful worker shutdown: kShutdown, close pipes, reap, demand exit 0.
void retire_worker(WorkerProc& p, u32 slot) {
  write_frame(p.to_fd, FrameKind::kShutdown, "");
  close_fd(p.to_fd);
  close_fd(p.from_fd);
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.alive = false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("cluster: worker for shard " +
                             std::to_string(slot) + " exited abnormally");
}

/// Error-path cleanup: closing the pipes forces blocked workers to exit on
/// EOF; reap whatever status they report.
void abandon_workers(std::vector<WorkerProc>& procs) {
  for (WorkerProc& p : procs) {
    if (!p.alive) continue;
    close_fd(p.to_fd);
    close_fd(p.from_fd);
    int status = 0;
    ::waitpid(p.pid, &status, 0);
    p.alive = false;
  }
}

InitMsg make_init(const ClusterSpec& spec, u32 slot, u32 slots) {
  InitMsg init;
  init.machine = spec.machine;
  init.config = spec.config;
  init.program = spec.program;
  init.engine_seed = spec.engine_seed;
  init.slot = slot;
  init.slots = slots;
  init.engine_flags = spec.engine_flags;
  init.driver_flags = spec.driver.to_flags();
  if (!spec.artifact_stem.empty()) {
    init.trace_path =
        spec.artifact_stem + ".shard" + std::to_string(slot) + ".trace.jsonl";
    init.metrics_path =
        spec.artifact_stem + ".shard" + std::to_string(slot) + ".metrics.json";
  }
  return init;
}

/// Runs each slot's batches in its own worker process. send() writes the
/// Batch frame and returns, so every worker of an epoch simulates
/// concurrently until receive() reads the Result frames in slot order.
/// Workers still alive at destruction (an error unwound the loop) are
/// abandoned: closing their pipes makes them exit on EOF.
class PipeTransport final : public Transport {
 public:
  PipeTransport(const ClusterSpec& spec, u32 slots)
      : spec_(spec), slots_(slots), procs_(slots), sent_epoch_(slots, 0) {}
  ~PipeTransport() override { abandon_workers(procs_); }

  void start(u32 slot) override {
    procs_[slot] = spawn_worker(make_init(spec_, slot, slots_));
  }
  void stop(u32 slot) override { retire_worker(procs_[slot], slot); }

  void send(u32 slot, BatchMsg batch) override {
    sent_epoch_[slot] = batch.epoch;
    write_frame(procs_[slot].to_fd, FrameKind::kBatch, batch.encode());
  }

  SliceOutcome receive(u32 slot) override {
    const auto frame = read_frame(procs_[slot].from_fd);
    if (!frame || frame->kind != FrameKind::kResult)
      throw std::runtime_error("cluster: shard " + std::to_string(slot) +
                               " did not return a result");
    ResultMsg m = ResultMsg::decode(frame->payload);
    if (m.epoch != sent_epoch_[slot])
      throw std::runtime_error("cluster: shard " + std::to_string(slot) +
                               " answered for the wrong epoch");
    return std::move(m.outcome);
  }

 private:
  const ClusterSpec& spec_;
  u32 slots_;
  std::vector<WorkerProc> procs_;
  std::vector<u32> sent_epoch_;
};

}  // namespace

ClusterRunResult run_cluster(const ClusterSpec& spec, obs::Sink* sink) {
  const ClusterOptions& opt = spec.options;
  const u32 slots = opt.slots();
  if (spec.driver.arrival == Arrival::kClosed)
    throw std::invalid_argument("cluster serving requires an open-loop "
                                "arrival (--arrival=poisson, mmpp, or trace)");
  if (opt.shards < 1 || slots > 64 || opt.shards > slots)
    throw std::invalid_argument("cluster shard/slot counts out of range");

  // Validate the engine spec in the supervisor before any fork, so name and
  // flag errors surface as one clean exception instead of a worker exit.
  const InitMsg probe = make_init(spec, 0, slots);
  const double ghz = engine_config_from_init(probe).profile.machine.ghz;

  const auto schedule = make_schedule(spec.driver, ghz);
  if (schedule.empty())
    throw std::invalid_argument("cluster run needs a non-empty schedule");

  PipeTransport transport(spec, slots);
  return run_epochs(schedule, spec.driver, ghz, opt, BreakerOptions{},
                    transport, sink);
}

}  // namespace gilfree::httpsim::cluster
