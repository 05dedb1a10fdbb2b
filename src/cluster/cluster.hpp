#pragma once
// A heterogeneous cluster: an ordered list of machine specs plus the
// interconnect.  Machine order defines MachineId.

#include <span>
#include <string>
#include <vector>

#include "cluster/network_model.hpp"
#include "graph/types.hpp"
#include "machine/machine_spec.hpp"

namespace pglb {

class Cluster {
 public:
  Cluster() = default;
  explicit Cluster(std::vector<MachineSpec> machines, NetworkModel network = {});

  MachineId size() const noexcept { return static_cast<MachineId>(machines_.size()); }
  bool empty() const noexcept { return machines_.empty(); }

  const MachineSpec& machine(MachineId m) const { return machines_.at(m); }
  std::span<const MachineSpec> machines() const noexcept { return machines_; }
  const NetworkModel& network() const noexcept { return network_; }

  /// Sum of compute threads — the denominator of the prior-work [5]
  /// thread-count partitioning heuristic.
  int total_compute_threads() const noexcept;

  /// Grid partitioning requires a square machine count (Sec. II-B3).
  bool is_square() const noexcept;

  /// Human-readable "name+name+..." label for bench output.
  std::string label() const;

 private:
  std::vector<MachineSpec> machines_;
  NetworkModel network_;
};

/// The clusters one application run is accounted for, one lane each.  An
/// app's per-superstep work (ops, mirror bytes) does not depend on machine
/// speeds, so a single run can be timed on several clusters of the same
/// machine count at once (VirtualClusterExecutor) — the profiler times one
/// run per (app, proxy) on every machine class this way.  Implicitly built
/// from one cluster, the ordinary case.
class ClusterLanes {
 public:
  ClusterLanes(const Cluster& cluster) noexcept : clusters_(&cluster, 1) {}
  /// Throws std::invalid_argument when `clusters` is empty or the machine
  /// counts differ.
  explicit ClusterLanes(std::span<const Cluster> clusters);

  std::size_t size() const noexcept { return clusters_.size(); }
  const Cluster& operator[](std::size_t lane) const { return clusters_[lane]; }
  MachineId num_machines() const noexcept { return clusters_.front().size(); }

 private:
  std::span<const Cluster> clusters_;
};

/// Convenience: build a cluster from catalog names, e.g.
/// {"m4.2xlarge", "c4.2xlarge"} for the paper's Case 1.
Cluster cluster_from_names(std::span<const std::string> names, NetworkModel network = {});

}  // namespace pglb
