// Property tests of the flat line-set table (src/htm/flat_table.hpp) and the
// conflict table built on it, against std::unordered_* references over
// seeded random operation streams:
//   - insert/find/erase agree with the reference, through growth,
//   - clear() empties in O(1) and survives a forced generation wraparound
//     without reviving entries stamped before it,
//   - iteration visits every live entry once, in insertion order when no
//     erase intervened,
//   - ConflictTable masks agree with a reference map, and the table
//     returns to zero tracked lines once every mark is removed.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "htm/conflict_table.hpp"
#include "htm/flat_table.hpp"

namespace gilfree::htm {
namespace {

// Keys drawn from a small range (so repeats and erases hit), spread over
// the high bits the way guest lines are (segment in the upper word).
u64 random_key(Rng& rng, u64 range) {
  const u64 k = rng.next_below(range);
  return ((k % 7 + 1) << 32) | (k / 7);
}

void expect_same(const FlatTable<u64>& t,
                 const std::unordered_map<u64, u64>& ref) {
  ASSERT_EQ(t.size(), ref.size());
  std::unordered_set<u64> seen;
  for (const auto& e : t) {
    ASSERT_TRUE(seen.insert(e.key).second) << "key iterated twice";
    const auto it = ref.find(e.key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(e.value, it->second);
  }
  for (const auto& [k, v] : ref) {
    const auto* e = t.find(k);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value, v);
  }
}

TEST(FlatTable, RandomStreamsMatchUnorderedMap) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FlatTable<u64> t;
    std::unordered_map<u64, u64> ref;
    const u64 range = 8 + rng.next_below(4000);
    for (int op = 0; op < 20'000; ++op) {
      const u64 key = random_key(rng, range);
      switch (rng.next_below(8)) {
        case 0:
          t.erase(key);
          ref.erase(key);
          break;
        case 1:
          EXPECT_EQ(t.find(key) != nullptr, ref.count(key) == 1);
          break;
        case 2:
          if (rng.next_below(200) == 0) {
            t.clear();
            ref.clear();
          }
          break;
        default: {
          bool inserted;
          auto& e = t.insert(key, 7, inserted);
          EXPECT_EQ(inserted, ref.count(key) == 0);
          e.value = op;
          ref[key] = op;
        }
      }
    }
    expect_same(t, ref);
  }
}

TEST(FlatTable, GrowsOnDemandAndIteratesInInsertionOrder) {
  FlatTable<u64> t;
  EXPECT_EQ(t.capacity(), 0u) << "no storage before the first insert";
  std::vector<u64> order;
  Rng rng(3);
  for (int i = 0; i < 5'000; ++i) {
    const u64 key = rng.next_u64();
    bool inserted;
    t.insert(key, i, inserted);
    if (inserted) order.push_back(key);
    ASSERT_LE(2 * t.size(), t.capacity()) << "load factor above 1/2";
  }
  std::vector<u64> iterated;
  for (const auto& e : t) iterated.push_back(e.key);
  EXPECT_EQ(iterated, order);

  // clear() keeps the capacity: the next transaction reuses it.
  const std::size_t cap = t.capacity();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);
  for (u64 key : order) EXPECT_EQ(t.find(key), nullptr);
}

TEST(FlatTable, GenerationWraparoundForgetsEveryStaleEntry) {
  FlatTable<u8> t;
  std::unordered_set<u64> ref;
  Rng rng(11);
  // Stamp slots with generation 1, jump two clears short of the 32-bit
  // wraparound and run past it: when the counter comes back to 1, the
  // first round's stamps must not bring their entries back.
  for (int i = 0; i < 300; ++i) {
    bool inserted;
    t.insert(random_key(rng, 500), 0, inserted);
  }
  t.set_generation(0xffff'fffeu);
  EXPECT_EQ(t.size(), 0u);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 300; ++i) {
      const u64 key = random_key(rng, 500);
      bool inserted;
      t.insert(key, 0, inserted);
      EXPECT_EQ(inserted, ref.insert(key).second);
    }
    EXPECT_EQ(t.size(), ref.size());
    for (int i = 0; i < 500; ++i) {
      const u64 key = random_key(rng, 500);
      EXPECT_EQ(t.find(key) != nullptr, ref.count(key) == 1);
    }
    t.clear();
    ref.clear();
    EXPECT_EQ(t.size(), 0u);
    for (int i = 0; i < 500; ++i)
      EXPECT_EQ(t.find(random_key(rng, 500)), nullptr);
  }
}

TEST(ConflictTable, RandomMarksMatchReferenceAndDrainToZero) {
  struct Marks {
    u64 readers = 0;
    u64 writers = 0;
  };
  for (u64 seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    ConflictTable t;
    std::unordered_map<LineId, Marks> ref;
    std::vector<std::unordered_set<LineId>> held(8);
    for (int op = 0; op < 20'000; ++op) {
      const LineId line = random_key(rng, 300);
      const CpuId cpu = static_cast<CpuId>(rng.next_below(8));
      const u64 self = u64{1} << cpu;
      Marks& m = ref[line];
      switch (rng.next_below(5)) {
        case 0:
          EXPECT_EQ(t.add_reader(line, cpu), m.writers & ~self);
          m.readers |= self;
          held[cpu].insert(line);
          break;
        case 1:
          EXPECT_EQ(t.add_writer(line, cpu), (m.readers | m.writers) & ~self);
          m.writers |= self;
          held[cpu].insert(line);
          break;
        case 2:
          EXPECT_EQ(t.holders_excluding(line, cpu),
                    (m.readers | m.writers) & ~self);
          EXPECT_EQ(t.writer_excluding(line, cpu), m.writers & ~self);
          break;
        default:
          // A detach: drop every mark one CPU holds.
          for (LineId l : held[cpu]) {
            t.remove(l, cpu);
            ref[l].readers &= ~self;
            ref[l].writers &= ~self;
          }
          held[cpu].clear();
      }
      if (m.readers == 0 && m.writers == 0) ref.erase(line);
      if (op % 97 == 0) {
        std::size_t live = 0;
        for (const auto& [l, s] : ref) live += (s.readers | s.writers) != 0;
        ASSERT_EQ(t.tracked_lines(), live);
      }
    }
    for (CpuId cpu = 0; cpu < held.size(); ++cpu)
      for (LineId l : held[cpu]) t.remove(l, cpu);
    EXPECT_EQ(t.tracked_lines(), 0u);
  }
}

}  // namespace
}  // namespace gilfree::htm
