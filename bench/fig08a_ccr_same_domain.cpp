// Figure 8a: CCR accuracy within one EC2 domain.  For the four c4 machines
// and four apps, compare the speedup-over-xlarge measured on real graphs
// (oracle) with the one predicted from synthetic proxies, and with the
// thread-count estimate.  Paper: proxies hit 92% accuracy, core counting
// errs by 108%.

#include "bench_common.hpp"
#include "core/ccr.hpp"
#include "gen/alpha_solver.hpp"
#include "graph/stats.hpp"

using namespace pglb;
using namespace pglb::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 128.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool csv = cli.get_bool("csv", false);
  check_unused_flags(cli);

  print_header("Fig. 8a - CCR from real vs synthetic graphs (c4 family)", "Fig. 8a");

  const auto family = c4_family();
  const auto graphs = load_natural_graphs(scale, seed);
  ProxySuite suite(scale, seed + 100);

  Table table({"app", "machine", "real (mean)", "synthetic", "threads-estimate"});
  double proxy_error_total = 0.0, thread_error_total = 0.0;
  int samples = 0;

  for (const AppKind app : kAllApps) {
    // Synthetic prediction: profile the proxies, pick per-graph by alpha;
    // since all four graphs share the proxy set, report the alpha-weighted
    // mean prediction.
    std::vector<std::vector<double>> proxy_speedups;  // per proxy
    for (const auto& proxy : suite.proxies()) {
      const std::vector<double> times = profile_machines(family, app, proxy.graph, scale);
      proxy_speedups.push_back(speedups_vs_baseline(times, 0));
    }

    for (std::size_t i = 0; i < family.size(); ++i) {
      std::vector<double> real_s, synth_s;
      for (const NamedGraph& g : graphs) {
        const std::vector<double> times = profile_machines(family, app, g.graph, scale);
        real_s.push_back(speedups_vs_baseline(times, 0)[i]);

        // Per-graph proxy choice by fitted alpha (the flow's pool lookup).
        const auto stats = compute_stats(g.graph);
        const double alpha = solve_alpha(stats.num_vertices, stats.num_edges).alpha;
        std::size_t best = 0;
        double best_gap = 1e300;
        for (std::size_t p = 0; p < suite.proxies().size(); ++p) {
          const double gap = std::abs(suite.proxies()[p].alpha - alpha);
          if (gap < best_gap) {
            best_gap = gap;
            best = p;
          }
        }
        synth_s.push_back(proxy_speedups[best][i]);
      }

      const double real = mean_of(real_s);
      const double synth = mean_of(synth_s);
      const double estimate = static_cast<double>(family[i].compute_threads) /
                              family[0].compute_threads;
      table.row()
          .cell(short_app_name(app))
          .cell(family[i].name)
          .cell(format_speedup(real))
          .cell(format_speedup(synth))
          .cell(format_speedup(estimate));
      if (i > 0) {
        proxy_error_total += relative_error(synth, real);
        thread_error_total += relative_error(estimate, real);
        ++samples;
      }
    }
  }
  emit_table(table, csv);

  std::cout << "\nproxy CCR accuracy:        "
            << format_percent(1.0 - proxy_error_total / samples)
            << "   (paper: ~92%)\n";
  std::cout << "thread-count estimate err: "
            << format_percent(thread_error_total / samples) << "   (paper: ~108%)\n";
  return 0;
}
