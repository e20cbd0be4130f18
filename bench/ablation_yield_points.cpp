// §5.4 ablation: without the extended yield points of §4.2 (keeping only
// CRuby's loop back-edges and method/block exits), transactions span far
// more work, overflow the store footprint, and fall back to the GIL —
// the paper saw >20% slowdowns versus the plain GIL in all NPB programs
// except CG.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  Harness h(flags, "ablation_yield_points");

  const auto profile = htm::SystemProfile::zec12();
  std::cout << "== Ablation: extended yield points (HTM-dynamic @" << threads
            << " threads, zEC12; speedup vs 1-thread GIL) ==\n";
  TablePrinter table({"benchmark", "with_extended_yp", "without_extended_yp",
                      "abort_ratio_without_pct"});

  for (const auto& w : workloads::npb_workloads()) {
    const auto base =
        h.run_base(h.config(profile, "GIL"), w, {"GIL", 1, scale});

    // Recorded as the HTM-dynamic run it is, labelled as its column.
    auto with_cfg = h.config(profile, "HTM-dynamic");
    h.record(with_cfg, w.name, {"HTM-dynamic", threads, scale});
    h.label(with_cfg, {{"workload", w.name},
                       {"threads", std::to_string(threads)},
                       {"config", "with_extended_yp"}});
    const auto with_yp =
        workloads::run_workload(std::move(with_cfg), w, threads, scale);

    auto without_cfg = h.config(profile, "HTM-dynamic");
    without_cfg.vm.extended_yield_points = false;
    // The yield-point mutation is not carried by a record header, so this
    // variant is never recorded.
    const auto without_yp = h.run(std::move(without_cfg), w,
                                  {"without_extended_yp", threads, scale});

    table.add_row({w.name,
                   TablePrinter::num(base.elapsed_us / with_yp.elapsed_us, 2),
                   TablePrinter::num(base.elapsed_us / without_yp.elapsed_us,
                                     2),
                   TablePrinter::num(
                       100.0 * without_yp.stats.abort_ratio(), 1)});
  }
  emit(table, csv);
  return 0;
}
