#pragma once
// Resumable scorer state for the streaming partitioners (docs/DYNAMIC.md).
//
// The streaming family (hybrid, HDRF, oblivious, grid) assigns edges one at a
// time against evolving per-vertex / per-machine state.  An IncrementalState
// externalizes exactly that state so the delta planner can keep extending an
// assignment as mutation batches arrive instead of re-partitioning from
// scratch.
//
// This file holds the only implementation of each of the four scorers:
// Partitioner::partition for these kinds IS a fresh state fed the whole graph
// as one batch (partition_graph below), which is also how the delta planner
// rebuilds its state after a full re-profile.  The golden pins in
// tests/test_partition_golden.cpp guard the outputs.
//
// Retraction is the documented approximation: removing an edge returns its
// load to the pool (and rolls back degree counters where the scorer keeps
// them), but replica masks stay monotone — un-replicating a vertex would
// require re-deriving which surviving edges pinned it, which is exactly the
// from-scratch work this subsystem avoids.  Drift tracking (src/core/drift.*)
// bounds how long the approximation is allowed to accumulate before a full
// re-profile resets everything.
//
// chunking and random_hash need no scorer state (supports() == false): the
// delta planner recomputes them over the live edge list each batch, which is
// already O(E) cheap by construction.  ginger is offline-iterative and is
// rejected at the protocol layer.

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "partition/factory.hpp"
#include "persist/snapshot.hpp"

namespace pglb {

class IncrementalState {
 public:
  virtual ~IncrementalState() = default;

  virtual PartitionerKind kind() const noexcept = 0;

  /// Grow per-vertex state to cover ids in [0, count).  Growth only; the
  /// vertex space never shrinks between full rebuilds.
  virtual void ensure_vertices(VertexId count) = 0;

  /// Assign every edge of `batch` in order, appending one owner per edge to
  /// `out`.  Endpoints must be covered by ensure_vertices first.  Stateful:
  /// each call continues where the previous one stopped.  Hybrid and HDRF
  /// poll the ambient CancelScope every 16384 edges of the batch.
  virtual void assign_batch(std::span<const Edge> batch,
                            std::vector<MachineId>& out) = 0;

  /// Roll back the load (and degree counters) edge `e`, previously assigned
  /// to `owner`, contributed.  Replica masks are intentionally left monotone;
  /// see the header comment.
  virtual void retract(const Edge& e, MachineId owner) = 0;

  /// Serialize internal state with the persist payload primitives.  Weights,
  /// seed, and options are NOT encoded — the caller owns those and passes
  /// them back to decode().
  virtual void encode(std::string& out) const = 0;

  std::uint64_t seed() const noexcept { return seed_; }

  /// True for the streaming family that carries scorer state.
  static bool supports(PartitionerKind kind) noexcept;

  /// Fresh state for `kind`.  Validates like the scratch partitioner
  /// (positive weights; machine-count limits) and throws
  /// std::invalid_argument on the same inputs, or on an unsupported kind.
  static std::unique_ptr<IncrementalState> create(
      PartitionerKind kind, std::span<const double> weights, std::uint64_t seed,
      const PartitionerOptions& options = {});

  /// create() followed by restoring an encode()d payload.  Throws
  /// persist::SnapshotError on malformed bytes, including any per-vertex
  /// array longer than `max_vertices` — callers restoring a snapshot pass
  /// the snapshot's own vertex count, so crafted sizes cannot drive the
  /// allocation.
  static std::unique_ptr<IncrementalState> decode(
      PartitionerKind kind, persist::Cursor& cursor,
      std::span<const double> weights, std::uint64_t seed,
      const PartitionerOptions& options = {},
      std::uint64_t max_vertices = std::numeric_limits<VertexId>::max());

  /// Partitioner::partition for the streaming family: a fresh state for
  /// `kind` fed all of `graph` as one batch.
  static PartitionAssignment partition_graph(PartitionerKind kind, const EdgeList& graph,
                                             std::span<const double> weights,
                                             std::uint64_t seed,
                                             const PartitionerOptions& options = {});

 protected:
  explicit IncrementalState(std::uint64_t seed) : seed_(seed) {}

  virtual void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) = 0;

  std::uint64_t seed_;
};

}  // namespace pglb
