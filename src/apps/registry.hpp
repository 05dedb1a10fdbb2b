#pragma once
// Uniform entry point over the four applications, used by the profiler and
// the end-to-end flow: prepare the graph for the app, run it distributed,
// return the report plus a small result digest for sanity checks.

#include <string>

#include "apps/coloring.hpp"
#include "apps/connected_components.hpp"
#include "apps/pagerank.hpp"
#include "apps/kcore.hpp"
#include "apps/sssp.hpp"
#include "apps/triangle_count.hpp"

namespace pglb {

/// Per-app ingest transformation (Fig. 7b "load graph file"): Triangle Count
/// requires the canonical undirected simple graph; the others ingest the edge
/// list as-is.
EdgeList prepare_graph_for(AppKind kind, const EdgeList& graph);

/// One report per cluster lane (RunReports) plus the result digest.
struct AppRunResult : RunReports {
  /// App-specific scalar for sanity checking: PageRank = rank L1 norm,
  /// CC = component count, Coloring = colours used, TC = triangle count,
  /// SSSP = reachable vertex count, k-core = degeneracy.
  double digest = 0.0;
};

/// Run the app on an already-prepared, already-partitioned graph, accounted
/// for every cluster lane (one report each; the digest is lane-independent).
AppRunResult run_app(AppKind kind, const EdgeList& prepared_graph,
                     const DistributedGraph& dg, ClusterLanes clusters,
                     const WorkloadTraits& traits);

}  // namespace pglb
