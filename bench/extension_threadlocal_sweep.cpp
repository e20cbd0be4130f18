// §5.6 / §7 future-work extension, evaluated: the paper identifies the
// residual global free-list manipulation as the dominant conflict source
// (">50% of read-set conflicts occurred at object allocation") and proposes
// thread-local lazy sweeping. This bench enables our implementation of that
// proposal (the sweeper deals freed objects straight onto per-thread lists)
// and measures the conflict-abort and throughput effect on an allocation-
// heavy NPB kernel under GC pressure.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  // Every variant mutates the heap beyond what a record header carries, so
  // this driver takes --record-* (strict CLI) but never records.
  Harness h(flags, "extension_threadlocal_sweep");

  const auto profile = htm::SystemProfile::zec12();
  std::cout << "== Extension: thread-local sweeping (§7 future work), "
            << "HTM-16 @" << threads
            << " threads, zEC12, GC-pressured heap ==\n";
  TablePrinter table({"benchmark", "variant", "speedup_vs_1t_gil",
                      "conflict_aborts", "gc_count"});

  for (const char* name : {"FT", "BT", "MG"}) {
    const auto& w = workloads::npb(name);
    // Optional --gc-* overrides (arenas, lazy sweep, deal policy) apply to
    // the variants only, after their own heap axes, so the legacy
    // two-variant table can be re-run on top of the new allocator features;
    // bench/gc_scaling covers the full matrix.
    auto base_cfg = h.config_without_gc(profile, "GIL");
    base_cfg.heap.initial_slots = 90'000;  // force several GCs
    const auto base = workloads::run_workload(std::move(base_cfg), w, 1,
                                              scale);

    for (bool tls_sweep : {false, true}) {
      auto cfg = h.config_without_gc(profile, "HTM-16");
      cfg.heap.initial_slots = 90'000;
      cfg.heap.thread_local_sweep = tls_sweep;
      cfg.heap.sweep_deal_threads = threads + 1;
      h.apply_gc(cfg.heap);
      cfg.heap.thread_local_sweep = tls_sweep;  // the variant axis wins
      const auto p = h.run(
          std::move(cfg), w,
          {tls_sweep ? "thread-local sweep" : "global free list", threads,
           scale});
      table.add_row(
          {name, tls_sweep ? "thread-local sweep" : "global free list",
           TablePrinter::num(base.elapsed_us / p.elapsed_us, 2),
           std::to_string(p.stats.htm.aborts_by_reason[static_cast<int>(
               htm::AbortReason::kConflict)]),
           std::to_string(p.stats.gc.collections)});
    }
  }
  emit(table, csv);
  return 0;
}
