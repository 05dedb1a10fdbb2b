#pragma once
// Distributed PageRank (Eq. 8): synchronous GAS.  Gather sums incoming
// rank/out-degree over each machine's local edges; apply updates masters;
// scatter synchronises mirrors (costed, the values live in shared arrays in
// this single-process simulation).

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/interference.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 10;
  /// Stop early when the L1 rank change drops below this (0 = fixed count).
  double tolerance = 0.0;
  /// Optional transient-slowdown schedule (multi-tenant interference).
  InterferenceSchedule interference;
};

struct PageRankOutput : RunReports {
  std::vector<double> ranks;
};

PageRankOutput run_pagerank(const EdgeList& graph, const DistributedGraph& dg,
                            ClusterLanes clusters, const WorkloadTraits& traits,
                            const PageRankOptions& options = {});

}  // namespace pglb
