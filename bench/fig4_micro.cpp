// Fig. 4 (+ §5.3): the While and Iterator embarrassingly parallel
// micro-benchmarks. GIL stays flat; the best HTM configuration reaches a
// ~10-11x speedup over the 1-thread GIL at 12 threads on zEC12.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto scale =
      static_cast<unsigned>(flags.get_int("scale", quick ? 1 : 2));
  const std::string machine = flags.get("machine", "zec12");
  Harness h(flags, "fig4_micro");
  const auto profile = h.machine(machine);

  for (const workloads::Workload* w :
       {&workloads::micro_while(), &workloads::micro_iterator()}) {
    std::cout << "== Fig.4 " << w->name << " on " << profile.machine.name
              << " (throughput normalized to 1-thread GIL) ==\n";
    TablePrinter table({"threads", "GIL", "HTM-1", "HTM-16", "HTM-dynamic"});

    const double base_elapsed =
        h.run_base(h.config(profile, "GIL"), *w, {"GIL", 1, scale})
            .elapsed_us;

    for (unsigned threads : thread_counts(profile, quick)) {
      std::vector<std::string> row = {std::to_string(threads)};
      for (const char* name : {"GIL", "HTM-1", "HTM-16", "HTM-dynamic"}) {
        const auto p =
            h.run(h.config(profile, name), *w, {name, threads, scale});
        // Per-thread work is fixed, so total work grows with threads:
        // throughput = threads * (base time / time).
        row.push_back(TablePrinter::num(
            static_cast<double>(threads) * base_elapsed / p.elapsed_us, 2));
      }
      table.add_row(row);
    }
    emit(table, csv);
    std::cout << "\n";
  }
  return 0;
}
