#include "partition/oblivious.hpp"

#include "obs/trace.hpp"
#include "partition/incremental.hpp"

namespace pglb {

PartitionAssignment ObliviousPartitioner::partition(const EdgeList& graph,
                                                    std::span<const double> weights,
                                                    std::uint64_t seed) const {
  PGLB_TRACE_SPAN("partition.oblivious", "partition");
  return IncrementalState::partition_graph(PartitionerKind::kOblivious, graph, weights, seed);
}

}  // namespace pglb
