#include "apps/coloring.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "engine/engine.hpp"
#include "graph/builder.hpp"
#include "util/hash.hpp"

namespace pglb {

namespace {

constexpr std::uint32_t kUncolored = 0xffffffffu;

/// Priority order: hash first, vertex id as tiebreak — a random permutation.
bool higher_priority(VertexId a, VertexId b, std::uint64_t seed) {
  const std::uint64_t ha = hash_u64(a, seed);
  const std::uint64_t hb = hash_u64(b, seed);
  return ha != hb ? ha > hb : a > b;
}

}  // namespace

ColoringOutput run_coloring(const EdgeList& graph, const DistributedGraph& dg,
                            ClusterLanes clusters, const WorkloadTraits& traits,
                            std::uint64_t priority_seed) {
  if (dg.num_machines() != clusters.num_machines()) {
    throw std::invalid_argument("run_coloring: machine count mismatch");
  }
  const VertexId n = dg.num_vertices();
  const AppProfile& app = profile_for(AppKind::kColoring);
  VirtualClusterExecutor exec(clusters, app, traits);
  const auto full_comm = mirror_sync_bytes(dg, app);

  // Full undirected adjacency for the apply-side mex computation.
  const Csr adj = build_undirected_csr(graph);

  std::vector<std::uint32_t> color(n, kUncolored);
  std::vector<char> ready(n, 0);
  VertexId uncolored = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (adj.degree(v) == 0) {
      color[v] = 0;  // isolated vertices colour trivially
    } else {
      ++uncolored;
    }
  }

  std::vector<std::uint32_t> forbidden;  // scratch for mex
  int rounds = 0;
  const int max_rounds = 10'000;
  double frontier_fraction = 1.0;
  while (uncolored > 0 && rounds < max_rounds) {
    ++rounds;
    std::vector<double> ops(dg.num_machines(), 0.0);

    // Gather phase: each machine scans its local edges to find which of its
    // uncoloured vertices are blocked by an uncoloured higher-priority
    // neighbour.
    std::fill(ready.begin(), ready.end(), 1);
    for (MachineId m = 0; m < dg.num_machines(); ++m) {
      double local_ops = 0.0;
      for (const Edge& e : dg.local_edges(m)) {
        if (e.src == e.dst) continue;
        const bool src_uncolored = color[e.src] == kUncolored;
        const bool dst_uncolored = color[e.dst] == kUncolored;
        if (!src_uncolored && !dst_uncolored) continue;
        local_ops += 1.0;
        if (src_uncolored && dst_uncolored) {
          if (higher_priority(e.dst, e.src, priority_seed)) {
            ready[e.src] = 0;
          } else {
            ready[e.dst] = 0;
          }
        }
      }
      ops[m] = local_ops;
    }

    // Apply phase: every unblocked uncoloured vertex takes the smallest
    // colour absent from its (coloured) neighbourhood.  Work lands on the
    // master machine.
    for (VertexId v = 0; v < n; ++v) {
      if (color[v] != kUncolored || !ready[v]) continue;
      forbidden.clear();
      for (const VertexId u : adj.neighbors(v)) {
        if (color[u] != kUncolored) forbidden.push_back(color[u]);
      }
      std::sort(forbidden.begin(), forbidden.end());
      std::uint32_t mex = 0;
      for (const std::uint32_t c : forbidden) {
        if (c == mex) {
          ++mex;
        } else if (c > mex) {
          break;
        }
      }
      color[v] = mex;
      --uncolored;
      const MachineId owner = dg.master(v);
      if (owner != kInvalidMachine) {
        ops[owner] += static_cast<double>(adj.degree(v));
      }
    }

    std::vector<double> comm(full_comm);
    for (double& c : comm) c *= frontier_fraction;
    exec.record_superstep(ops, comm);
    frontier_fraction = n > 0 ? static_cast<double>(uncolored) / n : 0.0;
  }

  ColoringOutput out;
  std::unordered_set<std::uint32_t> distinct(color.begin(), color.end());
  distinct.erase(kUncolored);
  out.num_colors = static_cast<std::uint32_t>(distinct.size());
  out.colors = std::move(color);
  out.set_lanes(exec.finish_lanes("coloring", uncolored == 0));
  return out;
}

}  // namespace pglb
