// Guest address space: stable segment:offset addresses for simulated memory.
//
// Conflict grouping, arena/nursery attribution, and the trace events that
// carry addresses used to key on *host* pointers. Host pointers change with
// ASLR, so two OS processes running the same seeded program produced
// different LineId values and different address-bearing diagnostics — the
// standing cross-process caveat in docs/ARCHITECTURE.md. The fix follows
// stmgc's segment-relative addressing: every slab of simulated memory (the
// heap control block, each arena block, each spill block, every VM stack)
// registers here at creation, in deterministic creation order, and receives
// a guest segment index. A guest address is then
//
//     guest = (segment_index + 1) << 32 | byte_offset_within_segment
//
// which is stable across processes because registration order is part of
// the simulation, not of the host allocator. Segment bases are 2^32-aligned
// in guest space (and >= 256-byte aligned in host space), so dividing a
// guest address by any power-of-two line size up to 256 yields the same
// line *grouping* as the host address did — behaviour is unchanged — while
// the line *values* become process-independent and can be emitted in traces,
// metrics, and the record/replay stream.
//
// Host addresses that were never registered (only possible for memory
// outside the simulated machine) fall back to a tagged host-derived line and
// are counted, so a coverage gap is visible instead of silently
// nondeterministic.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gilfree::sim {

/// A stable guest byte address. 0 is never a valid guest address (segment
/// indices are biased by one), so 0 doubles as "none" in trace events.
using GuestAddr = u64;

inline constexpr GuestAddr kInvalidGuestAddr = ~0ull;

class GuestSpace {
 public:
  struct Segment {
    std::string name;        ///< Deterministic label ("arena-3", "stack-t2").
    const std::byte* base;   ///< Host base address.
    u64 bytes;               ///< Extent; < 2^32 so offsets fit the low word.
    u32 index;               ///< Registration order = guest segment number.
  };

  /// Each guest segment occupies a disjoint 2^32-byte guest window.
  static constexpr unsigned kSegmentShift = 32;
  /// Fallback lines for unregistered host addresses carry this tag so they
  /// can never collide with a genuine guest line (guest lines stay far
  /// below 2^55 even at 64-byte granularity).
  static constexpr LineId kHostLineTag = 1ull << 55;

  /// Registers a host range and returns its guest segment index. Ranges
  /// must not overlap; registration order must be deterministic (it defines
  /// the guest addresses). `bytes` must fit in 32 bits.
  u32 add_segment(std::string name, const void* base, u64 bytes);

  /// Host pointer -> guest address; kInvalidGuestAddr when unregistered.
  /// A hit in the translation cache costs one compare; a miss searches the
  /// segments and fills the granule's entry.
  GuestAddr translate(const void* host) const {
    const auto a = reinterpret_cast<std::uintptr_t>(host);
    const CacheEntry& h = cache_[(a >> kGranuleShift) & (kCacheSize - 1)];
    if (a - h.base < h.bytes) return h.guest + (a - h.base);
    return translate_slow(a);
  }

  /// Guest address -> host pointer; nullptr when out of range.
  const void* to_host(GuestAddr guest) const;

  /// The line id the HTM/STM tiers key conflict detection on. Registered
  /// addresses map to guest lines; unregistered ones to tagged host lines
  /// (counted in unregistered_accesses()).
  LineId line_of(const void* host, u64 line_bytes) const {
    const GuestAddr guest = translate(host);
    if (guest != kInvalidGuestAddr) return guest / line_bytes;
    return unregistered_line(host, line_bytes);
  }

  /// The tagged host-derived line of an address translate() rejected;
  /// counts it in unregistered_accesses().
  LineId unregistered_line(const void* host, u64 line_bytes) const;

  /// Segment owning a guest address, or nullptr.
  const Segment* segment_of(GuestAddr guest) const;

  /// "name+0xOFF" for diagnostics; "unregistered" for fallback addresses.
  std::string describe(GuestAddr guest) const;

  std::size_t segment_count() const { return segments_.size(); }
  const Segment& segment(u32 index) const { return segments_.at(index); }

  /// Accesses that missed every registered segment — should stay 0 for a
  /// correctly instrumented engine; exposed so tests can assert coverage.
  u64 unregistered_accesses() const { return unregistered_; }

 private:
  /// A segment as the translation cache holds it: the host range
  /// [base, base + bytes) and the guest address of base.
  struct CacheEntry {
    std::uintptr_t base = 0;
    u64 bytes = 0;  ///< 0 = empty entry (never hits).
    GuestAddr guest = 0;
  };
  /// Direct-mapped by 64 KiB host granule: the accesses of one span
  /// alternate between a few segments (its stack, arena blocks, heap
  /// control), which a single most-recent entry thrashes on.
  static constexpr unsigned kGranuleShift = 16;
  static constexpr std::size_t kCacheSize = 256;

  GuestAddr translate_slow(std::uintptr_t a) const;

  std::vector<Segment> segments_;  ///< Indexed by registration order.
  std::vector<u32> by_base_;       ///< Segment indices sorted by host base.
  mutable std::array<CacheEntry, kCacheSize> cache_{};
  mutable u64 unregistered_ = 0;
};

}  // namespace gilfree::sim
