#include "runtime/options.hpp"

#include <charconv>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/strutil.hpp"

namespace gilfree::runtime {

namespace {

u32 positive_u32(const CliFlags& flags, const std::string& name, u32 def) {
  const long v = flags.get_int(name, static_cast<long>(def));
  if (v <= 0)
    throw std::invalid_argument("--" + name + " must be positive");
  return static_cast<u32>(v);
}

}  // namespace

void apply_gc_flags(const CliFlags& flags, vm::HeapConfig& heap) {
  heap.per_thread_arenas = flags.get_bool("gc-arena", heap.per_thread_arenas);
  heap.arena_min_segment =
      positive_u32(flags, "gc-arena-min", heap.arena_min_segment);
  heap.arena_max_segment =
      positive_u32(flags, "gc-arena-max", heap.arena_max_segment);
  heap.arena_hot_refill_cycles = static_cast<Cycles>(positive_u32(
      flags, "gc-arena-hot-cycles",
      static_cast<u32>(heap.arena_hot_refill_cycles)));
  heap.arena_idle_cycles = static_cast<Cycles>(positive_u32(
      flags, "gc-arena-idle-cycles", static_cast<u32>(heap.arena_idle_cycles)));
  heap.lazy_sweep = flags.get_bool("gc-lazy-sweep", heap.lazy_sweep);
  heap.sweep_quantum_blocks =
      positive_u32(flags, "gc-sweep-quantum", heap.sweep_quantum_blocks);
  const long deal =
      flags.get_int("gc-sweep-deal", static_cast<long>(heap.sweep_deal_threads));
  if (deal < 0) throw std::invalid_argument("--gc-sweep-deal must be >= 0");
  heap.sweep_deal_threads = static_cast<u32>(deal);

  const std::string policy = flags.get(
      "gc-sweep-policy", heap.sweep_deal_policy ==
                                 vm::HeapConfig::SweepDeal::kLineMate
                             ? "linemate"
                             : "rr");
  if (policy == "linemate") {
    heap.sweep_deal_policy = vm::HeapConfig::SweepDeal::kLineMate;
  } else if (policy == "rr") {
    heap.sweep_deal_policy = vm::HeapConfig::SweepDeal::kRoundRobin;
  } else {
    throw std::invalid_argument(
        "--gc-sweep-policy must be \"linemate\" or \"rr\" (got \"" + policy +
        "\")");
  }

  heap.nursery = flags.get_bool("gc-nursery", heap.nursery);
  heap.nursery_slots =
      positive_u32(flags, "gc-nursery-slots", heap.nursery_slots);
  const long mark_quantum = flags.get_int(
      "gc-mark-quantum", static_cast<long>(heap.mark_quantum));
  if (mark_quantum < 0)
    throw std::invalid_argument("--gc-mark-quantum must be >= 0");
  heap.mark_quantum = static_cast<u32>(mark_quantum);
  heap.arena_steal = flags.get_bool("gc-steal", heap.arena_steal);

  // Mirror the Heap constructor's GILFREE_CHECKs as user-facing errors so a
  // bad sweep script fails with a message instead of an assertion.
  if (heap.per_thread_arenas && !heap.thread_local_free_lists)
    throw std::invalid_argument(
        "--gc-arena requires thread-local free lists to be enabled");
  if (heap.nursery && !heap.per_thread_arenas)
    throw std::invalid_argument(
        "--gc-nursery requires --gc-arena (the young space is carved from "
        "the thread's arena)");
  if (heap.nursery && heap.nursery_slots < 64)
    throw std::invalid_argument("--gc-nursery-slots must be >= 64");
  if (heap.arena_steal && !heap.per_thread_arenas)
    throw std::invalid_argument("--gc-steal requires --gc-arena");
  constexpr u32 kObjsPerLine = 4;  // 256 B line / 64 B RVALUE
  if (heap.arena_min_segment % kObjsPerLine != 0 ||
      heap.arena_max_segment % kObjsPerLine != 0)
    throw std::invalid_argument(
        "--gc-arena-min/--gc-arena-max must be multiples of 4 (one zEC12 "
        "line of RVALUEs)");
  if (heap.arena_max_segment < heap.arena_min_segment)
    throw std::invalid_argument(
        "--gc-arena-max must be >= --gc-arena-min");
  if (heap.arena_idle_cycles <= heap.arena_hot_refill_cycles)
    throw std::invalid_argument(
        "--gc-arena-idle-cycles must exceed --gc-arena-hot-cycles");
}

void apply_engine_flags(EngineConfig& cfg,
                        const std::vector<std::string>& flags) {
  const CliFlags cli = flags_from_strings(flags);
  cfg.fault = fault::FaultConfig::from_flags(cli);
  cfg.stm = stm::StmConfig::from_flags(cli);
  apply_gc_flags(cli, cfg.heap);
  cli.reject_unknown();
}

EngineConfig engine_config(const htm::SystemProfile& profile,
                           const std::string& name,
                           const std::vector<std::string>& flags) {
  EngineConfig cfg;
  if (name == "GIL") {
    cfg = EngineConfig::gil(profile);
  } else if (name == "HTM-dynamic") {
    cfg = EngineConfig::htm_dynamic(profile);
  } else {
    // HTM-<n>: a whole decimal number (from_chars takes no '+', space or
    // suffix), n > 0.
    const std::string len = starts_with(name, "HTM-") ? name.substr(4) : "";
    i32 n = 0;
    const auto [end, ec] =
        std::from_chars(len.data(), len.data() + len.size(), n);
    if (ec != std::errc() || end != len.data() + len.size() || n <= 0)
      throw std::invalid_argument(
          "unknown engine config '" + name +
          "' (expected GIL, HTM-dynamic or HTM-<n> with n > 0)");
    cfg = EngineConfig::htm_fixed(profile, n);
  }
  apply_engine_flags(cfg, flags);
  return cfg;
}

}  // namespace gilfree::runtime
