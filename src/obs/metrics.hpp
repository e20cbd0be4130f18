// The metrics registry: exact (non-sampled) aggregates of one engine run —
// per-yield-point abort-reason × transaction-length histograms, GIL-fallback
// counts, request latencies, and the Fig. 8-style cycle accounting — plus
// the machine-readable JSON document format ("gilfree.metrics/1") they are
// exported as. docs/OBSERVABILITY.md documents every field.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_kind.hpp"
#include "htm/abort_reason.hpp"
#include "obs/latency_hist.hpp"
#include "stm/abort_cause.hpp"

namespace gilfree::obs {

/// Exact per-yield-point counters. The yield-point id is the compile-time
/// "pc" of the paper; -1 is the thread-entry pseudo yield point.
struct YieldPointMetrics {
  u64 begins = 0;    ///< Transaction attempts started at this yield point.
  u64 commits = 0;   ///< Attempts that reached TEND successfully.
  u64 fallbacks = 0; ///< GIL acquisitions that gave up on this yield point.
  std::array<u64, htm::kNumAbortReasons> aborts_by_reason{};
  /// Abort-reason × transaction-length histogram: for each reason, how many
  /// aborts happened to transactions of each chosen length.
  std::array<std::map<u32, u64>, htm::kNumAbortReasons> abort_length;
  /// Transaction-length histogram of attempts (chosen length → count).
  std::map<u32, u64> begins_by_length;
  u32 final_length = 0;        ///< Length-table entry at the end of the run.
  u64 length_adjustments = 0;  ///< Fig. 3 shrink events at this yield point.
  u64 quarantine_enters = 0;   ///< Circuit-breaker trips at this yield point.
  u64 quarantine_exits = 0;    ///< Successful recovery probes.

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_reason) t += a;
    return t;
  }
};

/// httpsim per-request latency aggregate (cycles are virtual). Total latency
/// is client arrival → server response, i.e. queue delay + service time; the
/// queue component (arrival → accept) is additionally tracked on its own so
/// open-loop runs expose queueing delay explicitly. Percentiles come from
/// the fixed-bucket log2 histograms (docs/OBSERVABILITY.md).
struct RequestMetrics {
  u64 completed = 0;
  u64 dropped = 0;  ///< Admission-queue rejections (open-loop drivers only).
  u64 shed = 0;     ///< Deadline sheds (admission + dispatch + mid-service).
  u64 codel_dropped = 0;  ///< CoDel adaptive-admission drops.
  u64 retries = 0;        ///< Retry re-admissions consumed by retry budgets.
  Cycles latency_min = 0;
  Cycles latency_max = 0;
  Cycles latency_sum = 0;
  Cycles queue_sum = 0;
  Cycles queue_max = 0;
  LatencyHistogram latency_hist;  ///< queue delay + service, per request.
  LatencyHistogram queue_hist;    ///< queue delay alone, per request.

  // Stamped by the attached ServerPort when the run finishes (engine calls
  // ServerPort::annotate_request_metrics); empty/0 for ports that predate
  // the open-loop drivers.
  std::string arrival;       ///< Arrival process: "closed"/"poisson"/"mmpp".
  double offered_rps = 0.0;  ///< Configured open-loop rate; 0 = closed loop.

  double latency_mean() const {
    return completed ? static_cast<double>(latency_sum) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  double queue_mean() const {
    return completed ? static_cast<double>(queue_sum) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  /// Cross-shard / cross-run merge: histograms add, extrema combine.
  void merge(const RequestMetrics& o);
};

/// Fig. 8 cycle buckets, mirrored from runtime::CycleBreakdown (obs cannot
/// depend on runtime; the engine copies the numbers in).
struct CycleMetrics {
  Cycles begin_end = 0;
  Cycles tx_success = 0;
  Cycles tx_aborted = 0;
  /// Work inside committed software transactions (tier 2, docs/TIERS.md).
  /// Emitted into the JSON document only when nonzero, so runs without the
  /// STM tier keep the pre-STM document bytes.
  Cycles stm_work = 0;
  Cycles gil_held = 0;
  Cycles gil_wait = 0;
  Cycles blocked_io = 0;
  Cycles other = 0;

  Cycles total() const {
    return begin_end + tx_success + tx_aborted + stm_work + gil_held +
           gil_wait + blocked_io + other;
  }
};

/// Tier-2 software-transaction counters, mirrored from stm::StmStats plus
/// the engine's tier-transition totals (obs cannot depend on runtime; the
/// engine copies the numbers in). All-zero — and omitted from the JSON
/// document — when the STM tier never engaged (docs/TIERS.md).
struct StmMetrics {
  u64 begins = 0;
  u64 commits = 0;
  std::array<u64, stm::kNumStmAbortCauses> aborts_by_cause{};
  u64 escalations = 0;     ///< Tier transitions HTM → STM.
  u64 gil_fallbacks = 0;   ///< Tier transitions STM → GIL.
  u64 validated_entries = 0;
  u64 committed_writes = 0;
  u64 zombie_kills = 0;    ///< Yield-point validations that killed a zombie.
  u64 max_read_lines = 0;
  u64 max_write_entries = 0;

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_cause) t += a;
    return t;
  }
  /// True when the tier saw any traffic; gates the JSON block.
  bool any() const { return begins + escalations + gil_fallbacks != 0; }
};

/// GC / allocator counters, mirrored from vm::GcStats (obs cannot depend on
/// vm; the engine copies the numbers in). Zero/empty when the run never
/// collected. docs/OBSERVABILITY.md documents the exported block.
struct GcMetrics {
  u64 collections = 0;
  u64 total_marked = 0;
  u64 total_swept = 0;
  u64 grown_blocks = 0;
  u64 arena_refills = 0;
  u64 arena_grows = 0;
  u64 arena_shrinks = 0;
  u64 pool_segments = 0;
  u32 segment_slots_min = 0;
  u32 segment_slots_max = 0;
  u64 sweep_quanta = 0;
  Cycles sweep_quantum_cycles = 0;
  // Generational / incremental extensions; all zero on non-generational
  // configs, which keeps their JSON block byte-identical to the pre-nursery
  // document (the emitter gates the new fields on any() of these).
  u64 minor_collections = 0;
  u64 nursery_promoted = 0;
  u64 nursery_freed = 0;
  u64 mark_quanta = 0;
  Cycles mark_quantum_cycles = 0;
  u64 arena_steals = 0;
  u64 stolen_segments = 0;
  Cycles max_pause = 0;
  LatencyHistogram pause_hist;  ///< Stop-the-world pause per collection.

  /// Cross-run merge: counters add, extrema combine, histograms add.
  void merge(const GcMetrics& o);
};

/// Everything one engine run exports into the metrics document.
struct RunMetrics {
  u32 run_id = 0;
  std::map<std::string, std::string> labels;  ///< Harness-assigned tags.
  u64 seed = 0;
  std::string mode;     ///< Engine sync mode name (GIL/HTM/...).
  std::string machine;  ///< Machine profile name.

  // Engine totals (equal to the RunStats the binaries print).
  u64 begins = 0;
  u64 commits = 0;
  std::array<u64, htm::kNumAbortReasons> aborts_by_reason{};
  u64 gil_fallbacks = 0;
  u64 ctx_switch_aborts = 0;
  u64 length_adjustments = 0;
  u64 insns_retired = 0;
  Cycles total_cycles = 0;
  double virtual_seconds = 0.0;

  // Interpreter hot-path counters (docs/ARCHITECTURE.md, "Interpreter").
  double ic_method_hit_rate = 0.0;  ///< Method-IC hits/(hits+misses); 0 if unused.
  double ic_ivar_hit_rate = 0.0;    ///< Ivar-IC hits/(hits+misses); 0 if unused.

  // Robustness counters (docs/ROBUSTNESS.md).
  u64 quarantine_enters = 0;
  u64 quarantine_probes = 0;
  u64 quarantine_exits = 0;
  u64 watchdog_events = 0;
  std::array<u64, fault::kNumFaultKinds> faults_by_kind{};

  u64 faults_injected() const {
    u64 t = 0;
    for (u64 f : faults_by_kind) t += f;
    return t;
  }

  CycleMetrics cycles;
  StmMetrics stm;
  GcMetrics gc;
  std::map<i32, YieldPointMetrics> per_yield_point;
  RequestMetrics requests;

  // Flight-recorder accounting (sampling/eviction transparency).
  double trace_sample = 1.0;
  u64 events_seen = 0;
  u64 events_recorded = 0;
  u64 events_evicted = 0;

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_reason) t += a;
    return t;
  }
  double abort_ratio() const {
    return begins == 0 ? 0.0
                       : static_cast<double>(total_aborts()) /
                             static_cast<double>(begins);
  }
};

/// Renders the "gilfree.metrics/1" document: {"schema", "runs":[...],
/// "totals":{...}}. Deterministic byte-for-byte for identical inputs.
std::string metrics_to_json(const std::vector<RunMetrics>& runs);

}  // namespace gilfree::obs
