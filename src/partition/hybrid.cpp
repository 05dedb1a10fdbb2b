#include "partition/hybrid.hpp"

#include <string>

#include "obs/trace.hpp"
#include "partition/incremental.hpp"

namespace pglb {

PartitionAssignment HybridPartitioner::partition(const EdgeList& graph,
                                                 std::span<const double> weights,
                                                 std::uint64_t seed) const {
  // Label carries the machine count (bounded label set, interned once per
  // distinct count); the guard keeps the disabled-tracing path allocation-free.
  PGLB_TRACE_SPAN_SARG(
      "partition.hybrid", "partition",
      tracing_enabled()
          ? intern_trace_label("machines=" + std::to_string(weights.size()))
          : nullptr);
  PartitionerOptions options;
  options.hybrid = options_;
  return IncrementalState::partition_graph(PartitionerKind::kHybrid, graph, weights, seed,
                                           options);
}

}  // namespace pglb
