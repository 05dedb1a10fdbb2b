#include "cluster/cluster.hpp"

#include <cmath>
#include <stdexcept>

#include "machine/catalog.hpp"

namespace pglb {

Cluster::Cluster(std::vector<MachineSpec> machines, NetworkModel network)
    : machines_(std::move(machines)), network_(network) {
  if (machines_.empty()) throw std::invalid_argument("Cluster: needs at least one machine");
  for (const MachineSpec& m : machines_) {
    if (m.compute_threads < 1) {
      throw std::invalid_argument("Cluster: machine '" + m.name + "' has no compute threads");
    }
  }
}

int Cluster::total_compute_threads() const noexcept {
  int total = 0;
  for (const MachineSpec& m : machines_) total += m.compute_threads;
  return total;
}

bool Cluster::is_square() const noexcept {
  const auto root = static_cast<MachineId>(std::lround(std::sqrt(static_cast<double>(size()))));
  return root * root == size();
}

std::string Cluster::label() const {
  std::string text;
  for (const MachineSpec& m : machines_) {
    if (!text.empty()) text += '+';
    text += m.name;
  }
  return text;
}

ClusterLanes::ClusterLanes(std::span<const Cluster> clusters) : clusters_(clusters) {
  if (clusters_.empty()) throw std::invalid_argument("ClusterLanes: needs at least one cluster");
  for (const Cluster& c : clusters_) {
    if (c.size() != num_machines()) {
      throw std::invalid_argument("ClusterLanes: lanes differ in machine count");
    }
  }
}

Cluster cluster_from_names(std::span<const std::string> names, NetworkModel network) {
  std::vector<MachineSpec> machines;
  machines.reserve(names.size());
  for (const std::string& name : names) machines.push_back(machine_by_name(name));
  return Cluster(std::move(machines), network);
}

}  // namespace pglb
