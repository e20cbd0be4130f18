// Deterministic record/replay stream (docs/DEBUGGING.md).
//
// A RunRecorder captures the *decision stream* of an engine run — every
// scheduling pick plus every abort/fault event — alongside the sampled
// flight recorder. Unlike the trace, the record stream is exact (no
// sampling) but bounded by a configurable event limit, and each run is
// prefixed with a header carrying enough scenario information (workload,
// machine, engine config, seed, and the flag strings for the fault/STM/GC
// families) for tools/replay to re-execute the run from the file alone.
//
// Because the engine is a deterministic discrete-event simulation and all
// addresses in the stream are guest addresses (sim::GuestSpace), replaying
// the header's scenario reproduces the recorded stream byte for byte in any
// process — which is what makes `--until <event#>` time-travel stops and
// abort-storm bisection possible.
//
// File format (JSON Lines, schema gilfree.record/1):
//   {"record":"gilfree.record/1","run":0,"scenario":{...},"flags":[...]}
//   {"e":1,"k":"sched","t":0,"tid":0}
//   {"e":2,"k":"abort","t":812,"tid":1,"yp":3,"len":16,"reason":"conflict",
//    "gaddr":4295201792,"line":12}
//   ...
//   {"k":"end","run":0,"events":N,"truncated":false,"aborts":...,...}
#pragma once

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gilfree {
class CliFlags;
}

namespace gilfree::obs {

/// CLI surface (strict; wired into every bench binary via bench::Harness):
///   --record-out=FILE   write the decision stream to FILE (JSONL)
///   --record-limit=N    events kept per run before truncation (> 0)
struct RecordConfig {
  std::string path;
  u64 limit = 1u << 20;

  bool enabled() const { return !path.empty(); }

  /// Strict parse; throws std::invalid_argument on malformed values.
  static RecordConfig from_flags(const CliFlags& flags);
};

enum class RecordKind : u8 {
  kSched,     ///< The engine picked `tid` to run its next burst.
  kAbort,     ///< A hardware transaction aborted (reason, guest address).
  kStmAbort,  ///< A tier-2 software transaction aborted (cause).
  kFault,     ///< The fault injector fired (kind).
};

constexpr std::string_view record_kind_name(RecordKind k) {
  switch (k) {
    case RecordKind::kSched: return "sched";
    case RecordKind::kAbort: return "abort";
    case RecordKind::kStmAbort: return "stm_abort";
    case RecordKind::kFault: return "fault";
  }
  return "?";
}

struct RecordEvent {
  u64 e = 0;         ///< 1-based event number within the run.
  RecordKind kind = RecordKind::kSched;
  Cycles t = 0;      ///< Virtual-cycle timestamp.
  u32 tid = 0;
  i32 yp = -1;       ///< Yield point (aborts only).
  u32 length = 0;    ///< Transaction length (HTM aborts only).
  u8 code = 0;       ///< htm::AbortReason / stm::StmAbortCause /
                     ///< fault::FaultKind, by kind.
  u64 gaddr = 0;     ///< Guest address of the conflicting line (0 = none).
  u16 src_line = 0;  ///< MiniRuby source line at the abort (0 = unknown).

  bool operator==(const RecordEvent&) const = default;
};

/// One parsed run of a record file.
struct RecordedRun {
  u32 run = 0;
  std::map<std::string, std::string> scenario;
  std::vector<std::string> flags;
  std::vector<RecordEvent> events;
  std::map<std::string, u64> summary;  ///< From the end line.
  u64 total_events = 0;                ///< Includes truncated tail.
  bool truncated = false;
};

/// Parses a record file; throws std::runtime_error on malformed input.
std::vector<RecordedRun> parse_record_file(const std::string& path);

class RunRecorder {
 public:
  /// In-memory recorder (replay verification, tests).
  RunRecorder() = default;
  /// File-backed when config.path is set; always also keeps the in-memory
  /// stream of the current run (bounded by config.limit).
  explicit RunRecorder(const RecordConfig& config);

  /// Starts a new run: writes the header, resets the event counter. The
  /// scenario map and flag list must carry everything replay needs (see
  /// runtime/replay.hpp for the recognized keys).
  void begin_run(std::map<std::string, std::string> scenario,
                 std::vector<std::string> flags);

  void on_sched(Cycles t, u32 tid);
  void on_abort(Cycles t, u32 tid, i32 yp, u32 length, u8 reason, u64 gaddr,
                u16 src_line);
  void on_stm_abort(Cycles t, u32 tid, i32 yp, u8 cause, u16 src_line);
  void on_fault(Cycles t, u32 tid, u8 kind);

  /// Ends the run: writes the summary trailer (sorted keys).
  void end_run(const std::map<std::string, u64>& summary);

  /// Time-travel stop: ask the engine to stop after event `event_no`
  /// (1-based; 0 disables). The engine polls stop_requested() between
  /// scheduling bursts.
  void set_stop_after(u64 event_no) { stop_after_ = event_no; }
  bool stop_requested() const {
    return stop_after_ != 0 && next_e_ > stop_after_;
  }

  /// Events of the current run retained in memory (≤ limit).
  const std::vector<RecordEvent>& events() const { return events_; }
  u64 total_events() const { return next_e_ - 1; }
  bool truncated() const { return truncated_; }
  u32 run() const { return run_; }
  /// The summary of the most recently ended run (replay verification).
  const std::map<std::string, u64>& last_summary() const {
    return last_summary_;
  }

  void flush();

 private:
  void add(RecordEvent ev);

  RecordConfig config_;
  std::ofstream out_;
  bool to_file_ = false;
  u32 run_ = 0;
  bool run_open_ = false;
  u64 next_e_ = 1;
  u64 stop_after_ = 0;
  bool truncated_ = false;
  std::vector<RecordEvent> events_;
  std::map<std::string, u64> last_summary_;
};

}  // namespace gilfree::obs
