// The HTM facility of the simulated machine.
//
// Design follows the zEC12 implementation the paper describes (§2.2):
//   * eager, cache-line-granular conflict detection (tx-read/tx-dirty bits
//     modeled by a global ConflictTable),
//   * store buffering — speculative stores go to a per-transaction redo log
//     (the "Gathering Store Cache") and reach memory only at TEND,
//   * capacity limits on the distinct cache lines read and written,
//   * requester-wins resolution: the CPU whose access hits somebody else's
//     transactional line dooms that transaction (the coherency request
//     invalidates the victim's speculative state),
//   * transient/persistent abort codes as reported by the real ISAs,
//   * exponentially-distributed external interrupts that abort transactions
//     spanning them, and
//   * optionally (Xeon profile) the TSX "learning" eager-abort behaviour.
//
// Memory is the host process's own memory in 8-byte slots, one per VM
// value. Footprints, redo logs and the conflict table are flat tables keyed
// on lines (docs/ARCHITECTURE.md § HTM line sets). Transactional accessors
// throw TxAbort when the running transaction dies mid-bytecode; the engine
// unwinds to its TBEGIN snapshot.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "htm/abort_reason.hpp"
#include "htm/conflict_table.hpp"
#include "htm/htm_config.hpp"
#include "htm/tsx_learning.hpp"
#include "sim/guest_space.hpp"
#include "sim/machine.hpp"

namespace gilfree::htm {

/// Raw per-CPU transaction statistics (the TLE layer keeps the higher-level
/// per-yield-point statistics).
struct HtmStats {
  u64 begins = 0;
  u64 commits = 0;
  u64 eager_aborts = 0;  ///< Learning-model aborts (subset of overflow-write).
  std::array<u64, kNumAbortReasons> aborts_by_reason{};

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_reason) t += a;
    return t;
  }
};

/// Told the line of every write that reaches memory outside speculation
/// (non-transactional stores, commit drains); the STM tier listens so its
/// validation sees writes it did not make (docs/TIERS.md).
class MemWriteListener {
 public:
  virtual ~MemWriteListener() = default;
  virtual void on_nontx_write(LineId line) = 0;
};

class HtmFacility {
 public:
  HtmFacility(const HtmConfig& config, sim::Machine* machine);

  /// TBEGIN/XBEGIN: kNone once the CPU speculates, otherwise the reason it
  /// aborted at once (learning model, injected begin-time fault), like
  /// XBEGIN's fallback path. `yp` (TLE yield point, -1 = thread entry) only
  /// targets fault-injection campaigns.
  AbortReason tx_begin(CpuId cpu, i32 yp = -1);

  /// TEND/XEND: applies the redo log and returns kNone, or rolls back a
  /// transaction doomed meanwhile and returns why.
  AbortReason tx_commit(CpuId cpu);

  /// TABORT/XABORT: software-initiated abort. Rolls back; does not throw.
  void tx_abort(CpuId cpu, AbortReason reason);

  /// Hardware-initiated abort of the transaction resident on `cpu`, if any
  /// (context switch, interrupt); its thread finds out when it resumes.
  void force_abort(CpuId cpu, AbortReason reason);

  /// Dooms every in-flight transaction except `except` (kInvalidCpu: none),
  /// before stop-the-world phases no GIL acquisition serializes (GC).
  void doom_all(CpuId except, AbortReason reason);

  bool in_tx(CpuId cpu) const { return tx_.at(cpu).active; }
  AbortReason doom(CpuId cpu) const { return tx_.at(cpu).doom; }

  /// Transactional 8-byte load. Private (non-`shared`) lines such as stacks
  /// count in the footprint but skip conflict tracking. Throws TxAbort on
  /// overflow, interrupt or a delivered doom. Every accessor takes `line` =
  /// line_of(addr) from callers that translated already (one translation
  /// per access, for every tier); kInvalidLine translates here.
  u64 tx_load(CpuId cpu, const u64* addr, bool shared,
              LineId line = kInvalidLine);

  /// Transactional 8-byte store into the redo log. Throws like tx_load.
  void tx_store(CpuId cpu, u64* addr, u64 value, bool shared,
                LineId line = kInvalidLine);

  /// Non-transactional accessors (GIL held, or no transaction yet). They
  /// doom conflicting transactions: writing GIL.acquired aborts every
  /// speculating thread, whose read sets all hold the GIL word (Fig. 1).
  u64 nontx_load(CpuId cpu, const u64* addr, LineId line = kInvalidLine);
  void nontx_store(CpuId cpu, u64* addr, u64 value,
                   LineId line = kInvalidLine);

  /// Capacity after SMT halving (§5.4: SMT siblings share the caches).
  u32 effective_max_read(CpuId cpu) const {
    return smt_share(cpu, config_.max_read_lines);
  }
  u32 effective_max_write(CpuId cpu) const {
    return smt_share(cpu, config_.max_write_lines);
  }

  const HtmStats& stats(CpuId cpu) const { return stats_.at(cpu); }
  HtmStats total_stats() const;

  /// Conflict-line histogram (diagnostics; enabled by set_collect_conflicts).
  void set_collect_conflicts(bool on) { collect_conflicts_ = on; }
  const std::unordered_map<LineId, u64>& conflict_lines() const {
    return conflict_lines_;
  }

  /// Guest-relative with a guest space attached (stable across OS
  /// processes), host-derived otherwise.
  LineId line_of(const void* addr) const {
    if (guest_ == nullptr)
      return reinterpret_cast<std::uintptr_t>(addr) >> line_shift_;
    const sim::GuestAddr g = guest_->translate(addr);
    if (g != sim::kInvalidGuestAddr) return g >> line_shift_;
    return guest_->unregistered_line(addr, config_.line_bytes);
  }

  /// Attaches the guest address space (not owned; null = host addressing)
  /// before any transaction: a mid-run switch orphans conflict marks.
  void set_guest_space(const sim::GuestSpace* guest) { guest_ = guest; }

  /// The line that doomed this CPU's last conflict abort until its next
  /// tx_begin (kInvalidLine for spurious/injected conflicts).
  LineId last_conflict_line(CpuId cpu) const {
    return last_conflict_line_.at(cpu);
  }

  /// Attaches a listener (not owned; null detaches), called for every
  /// nontx_store and, in first-store order, every redo entry a commit drains.
  void set_write_listener(MemWriteListener* listener) {
    write_listener_ = listener;
  }

  /// Attaches a fault-injection campaign (not owned; null detaches).
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Clears all state, statistics and diagnostics and re-derives the RNG
  /// streams, so back-to-back runs in one process are identical.
  void reset();

 private:
  static constexpr u8 kRead = 1, kWritten = 2;
  struct Buffered {
    u64 value;
    LineId line;
  };
  struct TxState {
    bool active = false;
    AbortReason doom = AbortReason::kNone;  ///< Set = lines detached.
    FlatTable<u8> lines;  ///< Footprint: line -> kRead | kWritten.
    u32 read_count = 0;   ///< Lines marked kRead.
    u32 write_count = 0;  ///< Lines marked kWritten.
    FlatTable<Buffered> redo;  ///< Keyed by slot host address.
    Cycles next_interrupt = 0;
    Cycles deadline = 0;  ///< min(next_interrupt, next spurious arrival).
  };

  /// Entry checks of every transactional access: a delivered doom, then the
  /// interrupt and spurious-fault clocks behind one deadline compare.
  TxState& enter(CpuId cpu);
  void deadline_due(CpuId cpu);
  void arm_deadline(TxState& t, CpuId cpu) {
    t.deadline = injector_ ? std::min(t.next_interrupt,
                                      injector_->next_spurious(cpu))
                           : t.next_interrupt;
  }
  u32 smt_share(CpuId cpu, u32 max) const {
    const bool halved =
        config_.smt_shares_capacity && machine_->smt_contended(cpu);
    return halved ? max / 2 : max;
  }
  /// Aborts with `reason` once a footprint of `lines` exceeds the (possibly
  /// fault-clipped) capacity `max`.
  void check_capacity(CpuId cpu, u32 lines, u32 max, AbortReason reason);
  /// Dooms `victims` (if any) for a conflict on `line`.
  void conflict(u64 victims, LineId line);
  void doom_mask(u64 mask, AbortReason reason, LineId line);
  void detach(CpuId cpu);
  void rollback(CpuId cpu, AbortReason reason);
  void seed_rngs();
  [[noreturn]] void abort_self(CpuId cpu, AbortReason reason);

  HtmConfig config_;
  u32 line_shift_;  ///< log2(line_bytes).
  sim::Machine* machine_;
  ConflictTable table_;
  std::vector<TxState> tx_;
  std::vector<HtmStats> stats_;
  std::vector<Rng> rng_;
  u64 learning_seed_ = 0;  ///< Derived in seed_rngs(); reused by reset().
  std::optional<TsxLearningModel> learning_;
  fault::FaultInjector* injector_ = nullptr;
  MemWriteListener* write_listener_ = nullptr;
  const sim::GuestSpace* guest_ = nullptr;
  bool collect_conflicts_ = false;
  std::unordered_map<LineId, u64> conflict_lines_;
  std::vector<LineId> last_conflict_line_;  ///< Per CPU; set at doom time.
};

}  // namespace gilfree::htm
