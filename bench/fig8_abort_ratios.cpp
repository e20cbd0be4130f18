// Fig. 8 (left, middle): abort ratios of HTM-dynamic across the NPB on both
// machines, per thread count. Paper shape: mostly below ~2% on zEC12
// (1% target ratio) and below ~7% on the Xeon (6% target).
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  Harness h(flags, "fig8_abort_ratios");

  for (const char* machine : {"zec12", "xeon"}) {
    const auto profile = htm::SystemProfile::by_name(machine);
    std::cout << "== Fig.8 abort ratios of HTM-dynamic, NPB / "
              << profile.machine.name << " (%) ==\n";
    std::vector<std::string> headers = {"threads"};
    for (const auto& w : workloads::npb_workloads()) headers.push_back(w.name);
    TablePrinter table(headers);

    for (unsigned threads : thread_counts(profile, quick)) {
      if (threads == 1) continue;  // single-threaded runs use the GIL
      std::vector<std::string> row = {std::to_string(threads)};
      for (const auto& w : workloads::npb_workloads()) {
        const auto p = h.run(h.config(profile, "HTM-dynamic"), w,
                             {"HTM-dynamic", threads, scale});
        row.push_back(TablePrinter::num(100.0 * p.stats.abort_ratio(), 2));
      }
      table.add_row(row);
    }
    emit(table, csv);
    std::cout << "\n";
  }
  return 0;
}
