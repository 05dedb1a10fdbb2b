#include "partition/hdrf.hpp"

#include <string>

#include "obs/trace.hpp"
#include "partition/incremental.hpp"

namespace pglb {

PartitionAssignment HdrfPartitioner::partition(const EdgeList& graph,
                                               std::span<const double> weights,
                                               std::uint64_t seed) const {
  PGLB_TRACE_SPAN_SARG(
      "partition.hdrf", "partition",
      tracing_enabled()
          ? intern_trace_label("machines=" + std::to_string(weights.size()))
          : nullptr);
  PartitionerOptions options;
  options.hdrf = options_;
  return IncrementalState::partition_graph(PartitionerKind::kHdrf, graph, weights, seed,
                                           options);
}

}  // namespace pglb
