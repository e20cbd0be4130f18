// Global cache-line ownership table for eager conflict detection among
// in-flight transactions, modeling the tx-read/tx-dirty bits zEC12 attaches
// to L1 lines (§2.2). A line is tracked exactly while some CPU holds a mark
// on it. Marks are u64 CPU bitmasks: up to 64 hardware threads.
#pragma once

#include "common/types.hpp"
#include "htm/flat_table.hpp"

namespace gilfree::htm {

class ConflictTable {
 public:
  /// Marks `cpu` as a reader of `line`; returns the other CPUs writing it.
  u64 add_reader(LineId line, CpuId cpu) {
    bool inserted;
    Marks& m = map_.insert(line, Marks{}, inserted).value;
    m.readers |= bit(cpu);
    return m.writers & ~bit(cpu);
  }

  /// Marks `cpu` as a writer of `line`; returns the other CPUs holding it.
  u64 add_writer(LineId line, CpuId cpu) {
    bool inserted;
    Marks& m = map_.insert(line, Marks{}, inserted).value;
    const u64 others = (m.readers | m.writers) & ~bit(cpu);
    m.writers |= bit(cpu);
    return others;
  }

  /// Other CPUs' readers/writers of `line`: a store by `cpu` dooms them.
  u64 holders_excluding(LineId line, CpuId cpu) const {
    const auto* e = map_.find(line);
    return e ? (e->value.readers | e->value.writers) & ~bit(cpu) : 0;
  }

  /// Other CPUs' writers of `line`: a load by `cpu` dooms them.
  u64 writer_excluding(LineId line, CpuId cpu) const {
    const auto* e = map_.find(line);
    return e ? e->value.writers & ~bit(cpu) : 0;
  }

  /// Removes every mark `cpu` holds on `line` (called during detach).
  void remove(LineId line, CpuId cpu) {
    auto* e = map_.find(line);
    if (e == nullptr) return;
    e->value.readers &= ~bit(cpu);
    e->value.writers &= ~bit(cpu);
    if ((e->value.readers | e->value.writers) == 0) map_.erase(line);
  }

  std::size_t tracked_lines() const { return map_.size(); }

 private:
  struct Marks {
    u64 readers = 0;  ///< Bitmask of transactional readers.
    u64 writers = 0;  ///< Bitmask of transactional writers (buffered).
  };
  static constexpr u64 bit(CpuId cpu) { return u64{1} << cpu; }
  FlatTable<Marks> map_;
};

}  // namespace gilfree::htm
