// The harness every figure-reproduction benchmark binary shares.
//
// Every binary prints the same rows/series its paper figure reports:
// throughput normalized to the 1-thread GIL configuration, per thread count
// and engine configuration. `--csv` switches to machine-readable output;
// `--scale` grows the problem size (Fig. 6b's "class W" effect);
// `--quick` shrinks thread sweeps for smoke runs.
#pragma once

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/strutil.hpp"
#include "common/table.hpp"
#include "fault/fault_config.hpp"
#include "htm/profile.hpp"
#include "obs/record.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "stm/stm_config.hpp"
#include "workloads/replay.hpp"
#include "workloads/runner.hpp"

namespace gilfree::bench {

/// The engine configurations of Fig. 5/7, by canonical name.
inline std::vector<std::string> paper_configs() {
  return {"GIL", "HTM-1", "HTM-16", "HTM-256", "HTM-dynamic"};
}

/// Thread counts per machine, as in Fig. 5 (zEC12 up to 12, Xeon up to 8).
inline std::vector<unsigned> thread_counts(const htm::SystemProfile& p,
                                           bool quick) {
  if (quick) return {1, p.machine.num_cpus()};
  if (p.machine.num_cpus() >= 12) return {1, 2, 4, 6, 8, 12};
  return {1, 2, 3, 4, 5, 6, 7, 8};
}

inline void emit(const TablePrinter& table, bool csv) {
  if (csv) {
    std::cout << table.to_csv();
  } else {
    std::cout << table.to_string();
  }
}

/// Runs `f`; a std::invalid_argument it throws becomes `error: ...` and
/// exit 2, like the flag parser's own errors.
template <typename F>
auto or_exit(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

using Labels = std::map<std::string, std::string>;

/// One run of a figure. `config` is what the run is recorded as: runs of a
/// registry workload under a canonical name (GIL, HTM-<n>, HTM-dynamic) are
/// replayable, variant names never are.
struct Point {
  std::string config;
  unsigned threads = 1;
  unsigned scale = 1;
  std::string phase = {};  ///< Adds a "phase" label when nonempty.
};

/// The flag plumbing of every figure driver, built once the driver has read
/// its own flags. It parses the families the driver takes:
///   obs     --trace-out= --metrics-out= --trace-sample= --trace-capacity=
///           (docs/OBSERVABILITY.md; always)
///   kFault  --fault-*                            (docs/ROBUSTNESS.md)
///   kStm    --stm --gil-subscription= --stm-*    (docs/TIERS.md)
///   kGc     --gc-*                               (runtime::apply_gc_flags)
///   kRecord --record-out= --record-limit=        (docs/DEBUGGING.md)
/// A semantically bad value exits 2 with `error: ...`; then any flag nobody
/// read is rejected. Engines are built through runtime::engine_config with
/// the command line's engine flags, and each point is recorded (when
/// replayable), labelled and run by one call. `flags` must outlive the
/// harness.
class Harness {
 public:
  enum Family : unsigned {
    kFault = 1,
    kStm = 2,
    kGc = 4,
    kRecord = 8,
    kAll = kFault | kStm | kGc | kRecord,
  };

  Harness(const CliFlags& flags, std::string figure, unsigned families = kAll)
      : cli_(&flags),
        figure_(std::move(figure)),
        sink_(obs::ObsConfig::from_flags(flags)) {
    if (families & kFault)
      fault_ = or_exit([&] { return fault::FaultConfig::from_flags(flags); });
    if (families & kStm)
      stm_ = or_exit([&] { return stm::StmConfig::from_flags(flags); });
    if (families & kGc) {
      vm::HeapConfig heap;
      or_exit([&] { runtime::apply_gc_flags(flags, heap); });
    }
    if (families & kRecord) {
      const auto rc =
          or_exit([&] { return obs::RecordConfig::from_flags(flags); });
      if (rc.enabled()) recorder_ = std::make_unique<obs::RunRecorder>(rc);
    }
    flags.reject_unknown();
    for (const std::string& raw : flags.raw_args()) {
      if (starts_with(raw, "--fault-") || starts_with(raw, "--stm") ||
          starts_with(raw, "--gil-subscription") || starts_with(raw, "--gc-"))
        engine_flags_.push_back(raw);
    }
  }

  obs::Sink& sink() { return sink_; }
  /// The sink for calls that take a nullable one (sharded serving).
  obs::Sink* sink_or_null() { return sink_.enabled() ? &sink_ : nullptr; }
  const fault::FaultConfig& fault() const { return fault_; }
  const stm::StmConfig& stm() const { return stm_; }

  /// The profile a --machine= value names; exits 2 on an unknown one.
  htm::SystemProfile machine(const std::string& name) const {
    return or_exit([&] { return htm::SystemProfile::by_name(name); });
  }

  /// The canonical config `name` on `profile`, with the command line's
  /// --fault-*, --stm* and --gc-* flags.
  runtime::EngineConfig config(const htm::SystemProfile& profile,
                               const std::string& name) const {
    return or_exit(
        [&] { return runtime::engine_config(profile, name, engine_flags_); });
  }

  /// The same without the --gc-* flags, for drivers that apply them
  /// (apply_gc) in their own order against their own heap axes.
  runtime::EngineConfig config_without_gc(const htm::SystemProfile& profile,
                                          const std::string& name) const {
    std::vector<std::string> flags;
    for (const std::string& raw : engine_flags_)
      if (!starts_with(raw, "--gc-")) flags.push_back(raw);
    return or_exit(
        [&] { return runtime::engine_config(profile, name, flags); });
  }

  /// The same flags on a preset of another engine (fine-grained, unsynced).
  runtime::EngineConfig config(runtime::EngineConfig preset) const {
    or_exit([&] { runtime::apply_engine_flags(preset, engine_flags_); });
    return preset;
  }

  /// The --gc-* flags alone.
  void apply_gc(vm::HeapConfig& heap) const {
    or_exit([&] { runtime::apply_gc_flags(*cli_, heap); });
  }

  /// `extra` plus the figure and machine labels of a run of `cfg`.
  Labels labels(const runtime::EngineConfig& cfg, Labels extra) const {
    extra["figure"] = figure_;
    extra["machine"] = cfg.profile.machine.name;
    return extra;
  }

  /// Labels the next run of `cfg` (a no-op without --trace-out/--metrics-out).
  void label(runtime::EngineConfig& cfg, Labels extra) {
    if (!sink_.enabled()) return;
    sink_.next_labels(labels(cfg, std::move(extra)));
    cfg.obs_sink = &sink_;
  }

  /// Records (when replayable) the next run of `cfg` without labelling it.
  void record(runtime::EngineConfig& cfg, const std::string& workload,
              const Point& pt) {
    if (recorder_ == nullptr) return;
    if (workloads::by_name(workload) == nullptr) return;
    if (pt.config != "GIL" && !starts_with(pt.config, "HTM-")) return;
    cfg.recorder = recorder_.get();
    recorder_->begin_run(
        workloads::make_scenario(workload, cfg.profile.machine.name,
                                 pt.config, pt.threads, pt.scale, cfg.seed),
        workloads::replay_flags(cfg.fault, cfg.stm, cli_));
  }

  /// Records and labels the next run of `cfg`, for drivers that run the
  /// engine themselves.
  void prepare(runtime::EngineConfig& cfg, const std::string& workload,
               const Point& pt) {
    record(cfg, workload, pt);
    Labels extra = {{"workload", workload},
                    {"threads", std::to_string(pt.threads)},
                    {"config", pt.config}};
    if (!pt.phase.empty()) extra["phase"] = pt.phase;
    label(cfg, std::move(extra));
  }

  /// Records, labels and runs one point.
  workloads::RunPoint run(runtime::EngineConfig cfg,
                          const workloads::Workload& w, const Point& pt) {
    prepare(cfg, w.name, pt);
    return workloads::run_workload(std::move(cfg), w, pt.threads, pt.scale);
  }

  /// Records and runs the base of a throughput ratio; base runs stay out of
  /// the trace and metrics.
  workloads::RunPoint run_base(runtime::EngineConfig cfg,
                               const workloads::Workload& w, const Point& pt) {
    record(cfg, w.name, pt);
    return workloads::run_workload(std::move(cfg), w, pt.threads, pt.scale);
  }

 private:
  const CliFlags* cli_;
  std::string figure_;
  obs::Sink sink_;
  fault::FaultConfig fault_;
  stm::StmConfig stm_;
  std::unique_ptr<obs::RunRecorder> recorder_;
  /// The --fault-*, --stm*, --gil-subscription and --gc-* arguments as
  /// passed: what runtime::engine_config applies to every engine.
  std::vector<std::string> engine_flags_;
};

}  // namespace gilfree::bench
