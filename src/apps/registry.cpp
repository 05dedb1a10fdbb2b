#include "apps/registry.hpp"

#include <stdexcept>

#include "apps/reference.hpp"
#include "util/math.hpp"

namespace pglb {

EdgeList prepare_graph_for(AppKind kind, const EdgeList& graph) {
  if (kind == AppKind::kTriangleCount) return canonical_undirected(graph);
  return graph;
}

AppRunResult run_app(AppKind kind, const EdgeList& prepared_graph,
                     const DistributedGraph& dg, ClusterLanes clusters,
                     const WorkloadTraits& traits) {
  AppRunResult result;
  const auto take_reports = [&result](RunReports&& reports) {
    static_cast<RunReports&>(result) = std::move(reports);
  };
  switch (kind) {
    case AppKind::kPageRank: {
      auto out = run_pagerank(prepared_graph, dg, clusters, traits);
      KahanSum total;
      for (const double r : out.ranks) total.add(r);
      result.digest = total.value();
      take_reports(std::move(out));
      return result;
    }
    case AppKind::kColoring: {
      auto out = run_coloring(prepared_graph, dg, clusters, traits);
      result.digest = static_cast<double>(out.num_colors);
      take_reports(std::move(out));
      return result;
    }
    case AppKind::kConnectedComponents: {
      auto out = run_connected_components(prepared_graph, dg, clusters, traits);
      result.digest = static_cast<double>(out.num_components);
      take_reports(std::move(out));
      return result;
    }
    case AppKind::kTriangleCount: {
      auto out = run_triangle_count(prepared_graph, dg, clusters, traits);
      result.digest = static_cast<double>(out.total_triangles);
      take_reports(std::move(out));
      return result;
    }
    case AppKind::kKCore: {
      auto out = run_kcore(prepared_graph, dg, clusters, traits);
      result.digest = static_cast<double>(out.degeneracy);
      take_reports(std::move(out));
      return result;
    }
    case AppKind::kSssp: {
      auto out = run_sssp(prepared_graph, dg, clusters, traits);
      result.digest = static_cast<double>(out.reached);
      take_reports(std::move(out));
      return result;
    }
  }
  throw std::invalid_argument("run_app: unknown AppKind");
}

}  // namespace pglb
