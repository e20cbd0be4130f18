// Tier-2 software transaction engine (docs/TIERS.md).
//
// Between HTM retry exhaustion and the GIL: a timestamp-ordered STM in the
// style of pypy-stmgc. A global counter stamps a version table over the HTM
// line space; a transaction marks the version of each shared line it reads
// or writes, buffers its stores, and commits by validating every mark (and
// the GIL word under lazy subscription), then publishing through the HTM
// facility's non-transactional stores. Outside writes (GIL holders, HTM
// commits) arrive through MemWriteListener and bump versions. Deterministic:
// one counter, validation by equalities, tables iterated in first-access
// order, shared writes published in line order.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "gil/gil.hpp"
#include "htm/htm.hpp"
#include "stm/abort_cause.hpp"
#include "stm/stm_config.hpp"

namespace gilfree::stm {

struct StmStats {
  u64 begins = 0;
  u64 commits = 0;
  std::array<u64, kNumStmAbortCauses> aborts_by_cause{};
  u64 validated_entries = 0;  ///< Markers compared (commit + incremental).
  u64 committed_writes = 0;   ///< Buffered entries published by commits.
  u64 zombie_kills = 0;       ///< Yield-point validation catches of spans
                              ///< running past an invalidating write.
  u64 max_read_lines = 0;     ///< High-water marks across all transactions.
  u64 max_write_entries = 0;

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_cause) t += a;
    return t;
  }
};

class StmEngine : public htm::MemWriteListener, public gil::AcquireListener {
 public:
  /// `htm` may be null (unit tests): accesses then bypass the hardware
  /// conflict table and commits bump versions themselves.
  StmEngine(const StmConfig& config, htm::HtmFacility* htm);

  /// The GIL.acquired slot, for lazy subscription's commit-time check.
  void set_gil_word(const u64* word) { gil_word_ = word; }

  /// Starts `tid`'s transaction. The caller checkpoints and restores the VM
  /// registers; this class only buffers memory.
  void begin(u32 tid);

  bool in_tx(u32 tid) const { return tid < tx_.size() && tx_[tid].active; }
  bool doomed(u32 tid) const {
    return in_tx(tid) && tx_[tid].doom != StmAbortCause::kNone;
  }

  /// Transactional accessors; `shared` as for the HTM accessors (private
  /// slots are buffered for rollback only). On abort they roll back and
  /// throw htm::TxAbort (cause in last_cause). A shared access resolves
  /// `line` = line_of(addr) once, unless given, for the hardware and the
  /// commit order.
  u64 load(u32 tid, CpuId cpu, const u64* addr, bool shared,
           LineId line = kInvalidLine);
  void store(u32 tid, CpuId cpu, u64* addr, u64 value, bool shared,
             LineId line = kInvalidLine);

  /// The line both tiers key on (the HTM facility's mapping when attached).
  LineId line_of(const void* addr) const {
    if (htm_ != nullptr) return htm_->line_of(addr);
    return reinterpret_cast<std::uintptr_t>(addr) / config_.line_bytes;
  }

  /// Revalidates the marks without committing: true if still consistent,
  /// else rolled back (cause in last_cause) and the caller must unwind.
  /// Bounds the zombie window to one yield burst.
  bool validate(u32 tid);

  /// Commits: kNone with the buffer published, or the cause of the
  /// rollback. Never throws.
  StmAbortCause commit(u32 tid, CpuId cpu);

  /// Software-initiated abort (unsupported operation, engine policy):
  /// rolls back and throws htm::TxAbort like the accessors.
  [[noreturn]] void abort(u32 tid, StmAbortCause cause);

  /// Dooms every live software transaction (GC, eager GIL subscription).
  /// Doomed transactions fail at their next access or at commit.
  void doom_all(StmAbortCause cause);

  /// htm::MemWriteListener: a non-transactional store or an HTM commit
  /// published a slot on `line`.
  void on_nontx_write(LineId line) override;

  /// gil::AcquireListener: under eager subscription the acquisition dooms
  /// every live transaction, as if the GIL word were in each read set.
  /// Lazy subscription defers to commit.
  void on_gil_acquired() override;

  /// Cause of the most recent abort of `tid`'s transaction.
  StmAbortCause last_cause(u32 tid) const {
    return tid < last_cause_.size() ? last_cause_[tid] : StmAbortCause::kNone;
  }

  /// Read plus write marks (what validation compares), and buffered
  /// entries (what commit publishes), of `tid`'s live transaction.
  u32 marker_count(u32 tid) const {
    return in_tx(tid) ? tx_[tid].reads + tx_[tid].writes : 0;
  }
  u32 write_entry_count(u32 tid) const {
    return in_tx(tid) ? static_cast<u32>(tx_[tid].buffer.size()) : 0;
  }

  const StmStats& stats() const { return stats_; }

 private:
  static constexpr u8 kRead = 1, kWritten = 2;
  /// A shared line's version at the first access and how it was accessed.
  /// Versions only grow, so a line both read and written fails validation
  /// exactly when a separate read or write mark would.
  struct Mark {
    u64 version = 0;
    u8 kinds = 0;  ///< kRead | kWritten.
  };
  struct BufferedWrite {
    u64 value = 0;
    LineId line = kInvalidLine;  ///< Valid when shared.
    bool shared = false;
  };
  using Writes = htm::FlatTable<BufferedWrite>;  ///< By slot host address.
  struct Tx {
    bool active = false;
    bool lazy = false;
    StmAbortCause doom = StmAbortCause::kNone;
    htm::FlatTable<Mark> marks;
    u32 reads = 0;   ///< Lines marked kRead.
    u32 writes = 0;  ///< Lines marked kWritten.
    Writes buffer;
  };

  Tx& tx_at(u32 tid);
  Tx& enter(u32 tid);  ///< tx_at() for an access: live, aborts if doomed.
  u64 version_of(LineId line) const;
  /// Marks `line` with `kind`, recording its version at the first access;
  /// true when `kind` is new for the line.
  bool mark(Tx& t, LineId line, u8 kind);
  void bump(LineId line) {
    bool fresh;
    line_version_.insert(line, 0, fresh).value = ++clock_;
  }
  bool marks_valid(const Tx& t);
  void rollback(u32 tid, StmAbortCause cause);
  [[noreturn]] void abort_self(u32 tid, StmAbortCause cause);

  StmConfig config_;
  htm::HtmFacility* htm_;
  const u64* gil_word_ = nullptr;
  u64 clock_ = 0;
  htm::FlatTable<u64> line_version_;  ///< Lines never bumped: version 0.
  std::vector<Tx> tx_;
  std::vector<const Writes::Entry*> publish_;  ///< Commit scratch.
  std::vector<StmAbortCause> last_cause_;
  u32 active_count_ = 0;
  StmStats stats_;
};

}  // namespace gilfree::stm
