#include "apps/kcore.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "engine/engine.hpp"
#include "graph/builder.hpp"

namespace pglb {

namespace {

/// H-index of a multiset of values, using a counting pass bounded by the
/// candidate cap (a vertex's h-index never exceeds its degree).
std::uint32_t h_index(std::span<const std::uint32_t> values, std::uint32_t cap) {
  if (cap == 0 || values.empty()) return 0;
  std::vector<std::uint32_t> counts(cap + 1, 0);
  for (const std::uint32_t v : values) ++counts[std::min(v, cap)];
  std::uint32_t running = 0;
  for (std::uint32_t h = cap; h > 0; --h) {
    running += counts[h];
    if (running >= h) return h;
  }
  return 0;
}

}  // namespace

KCoreOutput run_kcore(const EdgeList& graph, const DistributedGraph& dg,
                      ClusterLanes clusters, const WorkloadTraits& traits,
                      int max_iterations) {
  if (dg.num_machines() != clusters.num_machines()) {
    throw std::invalid_argument("run_kcore: machine count mismatch");
  }
  const VertexId n = dg.num_vertices();
  // Same demand profile class as Connected Components: frontier propagation.
  const AppProfile& app = profile_for(AppKind::kKCore);
  VirtualClusterExecutor exec(clusters, app, traits);
  const auto full_comm = mirror_sync_bytes(dg, app);

  const Csr adj = build_undirected_csr(graph);
  std::vector<std::uint32_t> core(n);
  for (VertexId v = 0; v < n; ++v) {
    core[v] = static_cast<std::uint32_t>(adj.degree(v));
  }

  std::vector<char> changed(n, 1), next_changed(n, 0);
  std::vector<std::uint32_t> scratch;
  double active_fraction = 1.0;
  bool converged = false;

  for (int it = 0; it < max_iterations; ++it) {
    // Gather: machines scan local edges touching vertices whose neighbourhood
    // changed last round.
    std::vector<double> ops(dg.num_machines(), 0.0);
    std::vector<char> recompute(n, 0);
    for (MachineId m = 0; m < dg.num_machines(); ++m) {
      double local_ops = 0.0;
      for (const Edge& e : dg.local_edges(m)) {
        if (!changed[e.src] && !changed[e.dst]) continue;
        local_ops += 1.0;
        if (changed[e.src]) recompute[e.dst] = 1;
        if (changed[e.dst]) recompute[e.src] = 1;
      }
      ops[m] = local_ops;
    }

    // Apply: H-index over the full neighbourhood at the master.
    bool any_change = false;
    for (VertexId v = 0; v < n; ++v) {
      if (!recompute[v]) continue;
      const auto neighbors = adj.neighbors(v);
      scratch.clear();
      scratch.reserve(neighbors.size());
      for (const VertexId u : neighbors) scratch.push_back(core[u]);
      const std::uint32_t next = h_index(scratch, core[v]);
      const MachineId owner = dg.master(v);
      if (owner != kInvalidMachine) {
        ops[owner] += static_cast<double>(neighbors.size());
      }
      if (next < core[v]) {
        core[v] = next;
        next_changed[v] = 1;
        any_change = true;
      }
    }

    std::vector<double> comm(full_comm);
    for (double& c : comm) c *= active_fraction;
    exec.record_superstep(ops, comm);

    if (!any_change) {
      converged = true;
      break;
    }
    std::swap(changed, next_changed);
    std::fill(next_changed.begin(), next_changed.end(), 0);
    VertexId count = 0;
    for (const char c : changed) count += c;
    active_fraction = n > 0 ? static_cast<double>(count) / n : 0.0;
  }

  KCoreOutput out;
  out.degeneracy = core.empty() ? 0 : *std::max_element(core.begin(), core.end());
  out.coreness = std::move(core);
  out.set_lanes(exec.finish_lanes("kcore", converged));
  return out;
}

std::vector<std::uint32_t> kcore_reference(const EdgeList& graph) {
  const Csr adj = build_undirected_csr(graph);
  const VertexId n = adj.num_vertices();
  std::vector<std::uint32_t> degree(n), core(n, 0);
  std::uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(adj.degree(v));
    max_degree = std::max(max_degree, degree[v]);
  }

  // Classic O(V + E) peeling: bucket vertices by current degree, repeatedly
  // remove a minimum-degree vertex and decrement its neighbours.
  std::vector<std::vector<VertexId>> buckets(max_degree + 1);
  for (VertexId v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<char> removed(n, 0);

  std::uint32_t current = 0;
  for (std::uint32_t d = 0; d <= max_degree; ++d) {
    auto& bucket = buckets[d];
    while (!bucket.empty()) {
      const VertexId v = bucket.back();
      bucket.pop_back();
      if (removed[v] || degree[v] != d) continue;  // stale bucket entry
      removed[v] = 1;
      current = std::max(current, d);
      core[v] = current;
      for (const VertexId u : adj.neighbors(v)) {
        if (removed[u] || degree[u] <= d) continue;
        --degree[u];  // stays >= d, so the bucket index is never below d
        buckets[degree[u]].push_back(u);
      }
    }
  }
  return core;
}

}  // namespace pglb
