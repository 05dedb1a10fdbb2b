#include "core/online.hpp"

#include "core/profiler.hpp"
#include "gen/alpha_solver.hpp"
#include "partition/weights.hpp"
#include "util/log.hpp"

namespace pglb {

OnlineCcrManager::OnlineCcrManager(ProxySuite suite, std::span<const AppKind> apps)
    : suite_(std::move(suite)), apps_(apps.begin(), apps.end()) {}

std::size_t OnlineCcrManager::refresh(const Cluster& cluster) {
  std::size_t runs = 0;
  for (const AppKind app : apps_) {
    for (const ProxySuite::Proxy& proxy : suite_.proxies()) {
      const std::vector<MachineSpec> missing =
          db_.missing_machines(cluster, app, proxy.alpha);
      const std::vector<double> seconds =
          profile_machines(missing, app, proxy.graph, suite_.scale());
      for (std::size_t i = 0; i < missing.size(); ++i) {
        db_.record({app, proxy.alpha, missing[i].name}, seconds[i]);
        PGLB_LOG_DEBUG("online profile: ", to_string(app), " alpha=", proxy.alpha,
                       " on ", missing[i].name, " -> ", seconds[i], "s");
      }
      runs += missing.size();
    }
  }
  total_runs_ += runs;
  return runs;
}

std::vector<double> OnlineCcrEstimator::weights(const Cluster& cluster, AppKind app,
                                                const EdgeList& /*graph*/,
                                                const GraphStats& stats) const {
  const double alpha = fit_alpha_clamped(stats.num_vertices, stats.num_edges);
  return shares_from_capabilities(manager_->ccr_for(cluster, app, alpha));
}

}  // namespace pglb
