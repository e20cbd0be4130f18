// §5.1 sensitivity: the dynamic-adjustment constants. The paper argues the
// best target abort ratio depends on the HTM implementation (1% zEC12 / 6%
// Xeon), that INITIAL_TRANSACTION_LENGTH and PROFILING_PERIOD hardly matter
// unless set absurdly large, and that ATTENUATION_RATE = 0.75 works well.
#include "bench/harness.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  const std::string bench_name = flags.get("benchmark", "FT");
  Harness h(flags, "ablation_dynlen_params");

  const auto profile = htm::SystemProfile::zec12();
  const auto& w = workloads::npb(bench_name);
  const auto base = h.run_base(h.config(profile, "GIL"), w, {"GIL", 1, scale});

  auto run_with = [&](const char* variant, auto mutate) {
    auto cfg = h.config(profile, "HTM-dynamic");
    mutate(cfg);
    // Variants mutate tuning constants a record header cannot carry, so they
    // are never recorded.
    const auto p = h.run(std::move(cfg), w, {variant, threads, scale});
    return std::pair<double, double>(base.elapsed_us / p.elapsed_us,
                                     100.0 * p.stats.abort_ratio());
  };

  std::cout << "== Ablation: dynamic-adjustment constants (" << bench_name
            << " @" << threads << " threads, zEC12) ==\n";
  TablePrinter table({"variant", "speedup_vs_1t_gil", "abort_ratio_pct"});

  struct Variant {
    const char* name;
    void (*mutate)(runtime::EngineConfig&);
  };
  const Variant variants[] = {
      {"paper defaults (1% target, att 0.75, init 255)",
       [](runtime::EngineConfig&) {}},
      {"target 0.3% (threshold 1)",
       [](runtime::EngineConfig& c) { c.tle.adjustment_threshold = 1; }},
      {"target 6% (threshold 18)",
       [](runtime::EngineConfig& c) { c.tle.adjustment_threshold = 18; }},
      {"attenuation 0.5",
       [](runtime::EngineConfig& c) { c.tle.attenuation_rate = 0.5; }},
      {"attenuation 0.9",
       [](runtime::EngineConfig& c) { c.tle.attenuation_rate = 0.9; }},
      {"initial length 64",
       [](runtime::EngineConfig& c) {
         c.tle.initial_transaction_length = 64;
       }},
      {"initial length 10000 (paper's 'extremely large')",
       [](runtime::EngineConfig& c) {
         c.tle.initial_transaction_length = 10'000;
       }},
      {"profiling period 60",
       [](runtime::EngineConfig& c) {
         c.tle.profiling_period = 60;
         c.tle.adjustment_threshold = 1;
       }},
  };
  for (const Variant& v : variants) {
    const auto [speedup, abort_pct] = run_with(v.name, v.mutate);
    table.add_row({v.name, TablePrinter::num(speedup, 2),
                   TablePrinter::num(abort_pct, 2)});
  }
  emit(table, csv);
  return 0;
}
