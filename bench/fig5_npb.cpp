// Fig. 5: throughput of the seven Ruby NPB kernels, normalized to the
// 1-thread GIL, for GIL / HTM-1 / HTM-16 / HTM-256 / HTM-dynamic across
// thread counts, on either machine profile (--machine=zec12|xeon).
//
// Paper shape to reproduce: HTM-dynamic 1.9-4.4x at 12 threads on zEC12
// (best: FT; worst: CG/IS/LU), HTM-256 nearly flat (persistent overflow →
// GIL fallback), HTM-1 burdened by begin/end overhead, HTM-16 best among
// fixed lengths on zEC12 but hurt by SMT capacity halving beyond 4 threads
// on the Xeon.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const std::string machine = flags.get("machine", "zec12");
  const std::string only = flags.get("benchmarks", "");
  Harness h(flags, "fig5_npb");
  const auto profile = h.machine(machine);

  for (const workloads::Workload& w : workloads::npb_workloads()) {
    if (!only.empty() && only.find(w.name) == std::string::npos) continue;
    std::cout << "== Fig.5 " << w.name << " on " << profile.machine.name
              << " (throughput, 1 = 1-thread GIL) ==\n";
    std::vector<std::string> headers = {"threads"};
    for (const std::string& name : paper_configs()) headers.push_back(name);
    TablePrinter table(headers);

    const auto base =
        h.run_base(h.config(profile, "GIL"), w, {"GIL", 1, scale});

    for (unsigned threads : thread_counts(profile, quick)) {
      std::vector<std::string> row = {std::to_string(threads)};
      for (const std::string& name : paper_configs()) {
        const auto p =
            h.run(h.config(profile, name), w, {name, threads, scale});
        row.push_back(
            TablePrinter::num(base.elapsed_us / p.elapsed_us, 2));
      }
      table.add_row(row);
    }
    emit(table, csv);
    std::cout << "\n";
  }
  return 0;
}
