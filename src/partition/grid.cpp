#include "partition/grid.hpp"

#include "obs/trace.hpp"
#include "partition/incremental.hpp"

namespace pglb {

PartitionAssignment GridPartitioner::partition(const EdgeList& graph,
                                               std::span<const double> weights,
                                               std::uint64_t seed) const {
  PGLB_TRACE_SPAN("partition.grid", "partition");
  return IncrementalState::partition_graph(PartitionerKind::kGrid, graph, weights, seed);
}

}  // namespace pglb
