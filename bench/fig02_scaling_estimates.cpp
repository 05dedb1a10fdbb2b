// Figure 2: "Speedup estimated by prior work vs. real speedup."
//
// For the four c4 machines (xlarge -> 8xlarge) and the four MLDM apps, print
// the real speedup over c4.xlarge obtained by running on natural graphs,
// next to the prior-work estimate (compute-thread ratio).  The paper's
// takeaway: applications scale very differently (PageRank saturates, TC jumps
// at 8xlarge) and core counting wildly overestimates.

#include "bench_common.hpp"
#include "core/ccr.hpp"

using namespace pglb;
using namespace pglb::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 128.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool csv = cli.get_bool("csv", false);
  check_unused_flags(cli);

  print_header("Fig. 2 - real scaling vs thread-count estimates", "Fig. 2");

  const auto graphs = load_natural_graphs(scale, seed);
  const auto family = c4_family();

  Table table({"app", "machine", "threads-estimate", "real speedup (mean over graphs)"});
  double total_estimate_error = 0.0;
  int samples = 0;

  for (const AppKind app : kAllApps) {
    // Mean real speedup across the natural graphs.
    std::vector<std::vector<double>> per_graph_speedups;
    for (const NamedGraph& g : graphs) {
      const std::vector<double> times = profile_machines(family, app, g.graph, scale);
      per_graph_speedups.push_back(speedups_vs_baseline(times, 0));
    }
    for (std::size_t i = 0; i < family.size(); ++i) {
      std::vector<double> s;
      for (const auto& sp : per_graph_speedups) s.push_back(sp[i]);
      const double real = mean_of(s);
      const double estimate = static_cast<double>(family[i].compute_threads) /
                              family[0].compute_threads;
      table.row()
          .cell(short_app_name(app))
          .cell(family[i].name)
          .cell(format_speedup(estimate))
          .cell(format_speedup(real));
      if (i > 0) {
        total_estimate_error += relative_error(estimate, real);
        ++samples;
      }
    }
  }
  emit_table(table, csv);

  std::cout << "\nmean thread-count estimation error: "
            << format_percent(total_estimate_error / samples)
            << "   (paper: ~108% on the c4 family)\n";
  return 0;
}
