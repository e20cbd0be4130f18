// VM threads ("green" within the deterministic simulation; each maps to a
// simulated hardware thread via the engine's scheduler, mirroring CRuby 1.9's
// 1:1 native threading).
//
// All interpreter state except the four registers lives in the thread's
// stack slab (control frames included), so a transaction rollback only needs
// to restore the registers — the slab's speculative writes are discarded with
// the redo log.
#pragma once

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "common/zeroed.hpp"
#include "vm/value.hpp"

namespace gilfree::vm {

struct ThreadRegs {
  i32 iseq = -1;
  u32 pc = 0;
  u64 fp = kNoFrame;
  u64 sp = 0;

  static constexpr u64 kNoFrame = ~u64{0};
};

/// Control-frame header layout (slot offsets from fp). Locals follow at
/// fp + kFrameHeaderSlots; the operand stack grows after the locals.
enum FrameSlot : u32 {
  kFrCallerFp = 0,
  kFrCallerPc = 1,
  kFrCallerIseq = 2,   ///< ~0 when returning ends the thread.
  kFrSpRestore = 3,    ///< Caller sp to restore on leave (pops recv + args).
  kFrSelf = 4,
  kFrEnvParent = 5,    ///< Lexical parent frame (blocks); ~0 for methods.
  kFrBlockIseq = 6,    ///< Block handler passed to this call; ~0 none.
  kFrBlockEnvFp = 7,
  kFrBlockSelf = 8,
  kFrFlags = 9,        ///< Bit 0: constructor frame (leave pushes self).
  kFrameHeaderSlots = 10,
};

constexpr u64 kFrameFlagConstructor = 1;

class VmThread {
 public:
  /// Stack storage is aligned to the worst-case cache-line size (zEC12,
  /// 256 B) so the number of lines a frame spans — and with it the
  /// transactional footprint the simulator counts — depends only on stack
  /// offsets, never on where malloc placed the backing array.
  static constexpr u64 kStackAlignSlots = 256 / sizeof(u64);

  VmThread(u32 tid, u32 stack_slots)
      : tid_(tid), stack_slots_(stack_slots),
        storage_(make_zeroed<u64>(stack_slots + kStackAlignSlots)) {
    GILFREE_CHECK(stack_slots >= 1024);
    auto v = reinterpret_cast<std::uintptr_t>(storage_.get());
    v = (v + kStackAlignSlots * 8 - 1) & ~(kStackAlignSlots * 8 - 1);
    stack_ = reinterpret_cast<u64*>(v);
  }

  u32 tid() const { return tid_; }
  ThreadRegs& regs() { return regs_; }
  const ThreadRegs& regs() const { return regs_; }

  u64* stack_base() { return stack_; }
  const u64* stack_base() const { return stack_; }
  u32 stack_slots() const { return stack_slots_; }

  u64* slot(u64 index) {
    GILFREE_CHECK_MSG(index < stack_slots_, "VM stack overflow");
    return &stack_[index];
  }

  bool finished() const { return finished_; }
  void finish(Value result) {
    finished_ = true;
    result_ = result;
  }
  /// Rolls back a finish that happened inside an aborted transaction.
  void clear_finished() {
    finished_ = false;
    result_ = Value::nil();
  }
  Value result() const { return result_; }

  /// The thread's Thread object (roots it for GC; nil for the main thread
  /// until registered).
  Value thread_object = Value::nil();

  /// Set while the thread executes a blocking builtin with the GIL released
  /// (§3.2: I/O releases the GIL).
  bool in_blocking_region = false;

  /// One-outstanding-I/O flag used by io_wait's two-phase (initiate → park →
  /// complete) protocol under ParkRequest re-execution.
  bool io_pending = false;

 private:
  u32 tid_;
  u32 stack_slots_;
  ZeroedArray<u64> storage_;
  u64* stack_ = nullptr;  ///< Line-aligned start within storage_.
  ThreadRegs regs_;
  bool finished_ = false;
  Value result_ = Value::nil();
};

}  // namespace gilfree::vm
