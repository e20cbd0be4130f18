// Fig. 8 (right): cycle breakdown of HTM-dynamic at 12 threads on zEC12 —
// transaction begin/end overhead, successful transactions, GIL-acquired
// execution, aborted (discarded) transactions, and waiting for GIL release.
// Paper observation: GIL-release waiting exceeds the cycles wasted in
// aborted transactions.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  Harness h(flags, "fig8_cycle_breakdown");

  const auto profile = htm::SystemProfile::zec12();
  std::cout << "== Fig.8 cycle breakdown, HTM-dynamic @" << threads
            << " threads on zEC12 (% of cycles) ==\n";
  TablePrinter table({"benchmark", "begin/end", "successful_tx",
                      "gil_acquired", "aborted_tx", "waiting_for_gil",
                      "blocked_io", "other"});

  for (const auto& w : workloads::npb_workloads()) {
    const auto p = h.run(h.config(profile, "HTM-dynamic"), w,
                         {"HTM-dynamic", threads, scale});
    const auto& b = p.stats.breakdown;
    const double total = static_cast<double>(b.total());
    auto pct = [&](Cycles c) {
      return TablePrinter::num(100.0 * static_cast<double>(c) / total, 1);
    };
    table.add_row({w.name, pct(b.begin_end), pct(b.tx_success),
                   pct(b.gil_held), pct(b.tx_aborted), pct(b.gil_wait),
                   pct(b.blocked_io), pct(b.other)});
  }
  emit(table, csv);
  return 0;
}
