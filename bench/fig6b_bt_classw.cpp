// Fig. 6b: BT with the larger class-W-like size on the Xeon — given a run
// long enough for both the TSX learning machinery and the dynamic length
// adjustment to reach steady state, HTM-dynamic catches and passes the
// fixed-length configurations.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto scale =
      static_cast<unsigned>(flags.get_int("scale", quick ? 2 : 4));
  Harness h(flags, "fig6b_bt_classw");

  const auto profile = htm::SystemProfile::xeon_e3();
  const workloads::Workload& w = workloads::npb("BT");

  std::cout << "== Fig.6b BT class-W-like (scale=" << scale << ") on "
            << profile.machine.name << " ==\n";
  std::vector<std::string> headers = {"threads"};
  for (const std::string& name : paper_configs()) headers.push_back(name);
  TablePrinter table(headers);

  const auto base = h.run_base(h.config(profile, "GIL"), w, {"GIL", 1, scale});

  for (unsigned threads : thread_counts(profile, quick)) {
    std::vector<std::string> row = {std::to_string(threads)};
    for (const std::string& name : paper_configs()) {
      const auto p = h.run(h.config(profile, name), w, {name, threads, scale});
      row.push_back(TablePrinter::num(base.elapsed_us / p.elapsed_us, 2));
    }
    table.add_row(row);
  }
  emit(table, csv);
  return 0;
}
