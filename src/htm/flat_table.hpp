// Flat open-addressed table from a 64-bit key (a cache line, or a slot's
// host address) to a small value: the one container behind the HTM
// footprint and redo log, the conflict table, and the STM marks, write
// buffer and version table (docs/ARCHITECTURE.md § HTM line sets).
//
// Entries live in a dense array in insertion order; the probe array of
// {key, generation, entry index} slots uses linear probing at load <= 1/2.
// clear() bumps the generation instead of touching the slots, so a commit
// or abort costs O(1) and frees nothing; only a generation wraparound
// (2^32 clears) rewrites the slots. Tables start empty and double on
// demand, so capacity follows the footprint actually touched.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"

namespace gilfree::htm {

template <typename V>
class FlatTable {
 public:
  struct Entry {
    u64 key;
    V value;
  };

  /// The entry for `key`, inserting {key, init} when absent (`inserted`
  /// says which). The reference is valid until the next insert or erase.
  Entry& insert(u64 key, const V& init, bool& inserted) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    u64 i = home(key);
    for (; live(i); i = (i + 1) & mask_)
      if (slots_[i].key == key) {
        inserted = false;
        return entries_[slots_[i].index];
      }
    inserted = true;
    return append(i, key, init);
  }

  const Entry* find(u64 key) const {
    const u64 i = locate(key);
    return i == kNone ? nullptr : &entries_[slots_[i].index];
  }
  Entry* find(u64 key) {
    return const_cast<Entry*>(std::as_const(*this).find(key));
  }

  /// Removes `key` if present: the last entry takes its place, and the
  /// probe run closes by shifting back (no tombstones).
  void erase(u64 key) {
    u64 i = locate(key);
    if (i == kNone) return;
    const u32 index = slots_[i].index;
    if (index + 1 != entries_.size()) {
      entries_[index] = entries_.back();
      slots_[locate(entries_[index].key)].index = index;
    }
    entries_.pop_back();
    for (u64 j = (i + 1) & mask_; live(j); j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].gen = 0;
  }

  void clear() {
    entries_.clear();
    if (++gen_ != 0) return;
    for (Slot& s : slots_) s.gen = 0;  // Wrapped: old stamps would revive.
    gen_ = 1;
  }

  /// Empties the table by jumping to an unused nonzero generation, which
  /// lets a test drive clear() through the wraparound.
  void set_generation(u32 generation) {
    entries_.clear();
    gen_ = generation;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return slots_.size(); }
  /// Insertion order, as perturbed by erase().
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

 private:
  struct Slot {
    u64 key = 0;
    u32 gen = 0;  ///< Live iff equal to gen_, which is never 0.
    u32 index = 0;
  };
  static constexpr u64 kNone = ~u64{0};

  u64 home(u64 key) const { return (key * 0x9e3779b97f4a7c15ULL) >> shift_; }
  bool live(u64 i) const { return slots_[i].gen == gen_; }
  u64 locate(u64 key) const {
    if (entries_.empty()) return kNone;
    for (u64 i = home(key); live(i); i = (i + 1) & mask_)
      if (slots_[i].key == key) return i;
    return kNone;
  }
  // Both out of line, so that insert() inlines into the per-access paths.
  [[gnu::noinline]] Entry& append(u64 i, u64 key, const V& init) {
    slots_[i] = Slot{key, gen_, static_cast<u32>(entries_.size())};
    return entries_.emplace_back(Entry{key, init});
  }
  [[gnu::noinline]] void grow() {
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), Slot{});
    mask_ = slots_.size() - 1;
    shift_ = 64 - static_cast<u32>(__builtin_ctzll(slots_.size()));
    for (u32 n = 0; n < entries_.size(); ++n) {
      u64 i = home(entries_[n].key);
      while (live(i)) i = (i + 1) & mask_;
      slots_[i] = Slot{entries_[n].key, gen_, n};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  u32 gen_ = 1;
  u64 mask_ = 0;
  u32 shift_ = 64;
};

}  // namespace gilfree::htm
