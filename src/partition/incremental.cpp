#include "partition/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/deadline.hpp"
#include "util/hash.hpp"

namespace pglb {

namespace {

// Sparse (index, value) encoding for per-vertex arrays — after a few batches
// most vertices carry state, but fresh post-rebuild states are near-empty and
// the format stays O(nonzero).  Decoding checks the encoded length against
// the caller's vertex bound before allocating.
template <typename T>
void encode_sparse(std::string& out, const std::vector<T>& values) {
  persist::append_u64(out, values.size());
  std::uint64_t nonzero = 0;
  for (const T& v : values) {
    if (v != 0) ++nonzero;
  }
  persist::append_u64(out, nonzero);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] == 0) continue;
    persist::append_u32(out, static_cast<std::uint32_t>(i));
    persist::append_u64(out, static_cast<std::uint64_t>(values[i]));
  }
}

template <typename T>
std::vector<T> decode_sparse(persist::Cursor& cursor, std::uint64_t max_size) {
  const std::uint64_t size = cursor.read_u64();
  if (size > max_size) {
    throw persist::SnapshotError("incremental state: per-vertex array of " +
                                 std::to_string(size) + " entries exceeds " +
                                 std::to_string(max_size) + " vertices");
  }
  std::vector<T> values(size, 0);
  const std::uint64_t nonzero = cursor.read_u64();
  for (std::uint64_t k = 0; k < nonzero; ++k) {
    const std::uint32_t index = cursor.read_u32();
    if (index >= size) {
      throw persist::SnapshotError("incremental state: sparse index out of range");
    }
    values[index] = static_cast<T>(cursor.read_u64());
  }
  return values;
}

// --- hybrid ----------------------------------------------------------------
// Each batch is processed in two passes: count ALL of the batch's in-degrees,
// then assign by weight-biased hash of the grouping key.  A whole graph fed as
// one batch therefore sees its exact final in-degrees (the scan PowerLyra gets
// "for free", Sec. II-C1); later batches extend the maintained table.

class HybridIncrementalState final : public IncrementalState {
 public:
  HybridIncrementalState(std::span<const double> weights, std::uint64_t seed,
                         const HybridOptions& options)
      : IncrementalState(seed),
        options_(options),
        cum_(prefix_sum(normalized_weights(weights))) {}

  PartitionerKind kind() const noexcept override { return PartitionerKind::kHybrid; }

  void ensure_vertices(VertexId count) override {
    if (count > in_degree_.size()) in_degree_.resize(count, 0);
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    for (const Edge& e : batch) ++in_degree_.at(e.dst);
    for (std::size_t index = 0; index < batch.size(); ++index) {
      // Amortized ambient deadline poll; the assignment produced so far is
      // discarded on cancellation, so determinism is unaffected.
      if ((index & 0x3FFF) == 0) poll_cancellation("partition.hybrid");
      const Edge& e = batch[index];
      const bool high_degree = in_degree_[e.dst] > options_.high_degree_threshold;
      // Low-degree: group with the target (edge cut).  High-degree: scatter by
      // source (vertex cut).  Both use the weight-biased hash.
      const VertexId key = high_degree ? e.src : e.dst;
      out.push_back(static_cast<MachineId>(weighted_pick(hash_u64(key, seed_), cum_)));
    }
  }

  void retract(const Edge& e, MachineId /*owner*/) override {
    if (e.dst < in_degree_.size() && in_degree_[e.dst] > 0) --in_degree_[e.dst];
  }

  void encode(std::string& out) const override { encode_sparse(out, in_degree_); }

 private:
  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    in_degree_ = decode_sparse<EdgeId>(cursor, max_vertices);
  }

  HybridOptions options_;
  std::vector<double> cum_;
  std::vector<EdgeId> in_degree_;
};

// --- hdrf ------------------------------------------------------------------

class HdrfIncrementalState final : public IncrementalState {
 public:
  HdrfIncrementalState(std::span<const double> weights, std::uint64_t seed,
                       const HdrfOptions& options)
      : IncrementalState(seed), options_(options), shares_(normalized_weights(weights)) {
    if (shares_.size() > 64) {
      throw std::invalid_argument("hdrf: at most 64 machines supported");
    }
    load_.assign(shares_.size(), 0.0);
  }

  PartitionerKind kind() const noexcept override { return PartitionerKind::kHdrf; }

  void ensure_vertices(VertexId count) override {
    if (count > replicas_.size()) {
      replicas_.resize(count, 0);
      partial_degree_.resize(count, 0);
    }
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    const auto num_machines = static_cast<MachineId>(shares_.size());
    for (std::size_t index = 0; index < batch.size(); ++index) {
      // Amortized ambient deadline poll (see docs/ROBUSTNESS.md).
      if ((index & 0x3FFF) == 0) poll_cancellation("partition.hdrf");
      const Edge& e = batch[index];
      ++partial_degree_.at(e.src);
      ++partial_degree_.at(e.dst);
      const double du = static_cast<double>(partial_degree_[e.src]);
      const double dv = static_cast<double>(partial_degree_[e.dst]);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;

      double max_load = 0.0, min_load = std::numeric_limits<double>::infinity();
      for (MachineId p = 0; p < num_machines; ++p) {
        max_load = std::max(max_load, load_[p]);
        min_load = std::min(min_load, load_[p]);
      }

      const std::uint64_t tie_hash = hash_edge(e.src, e.dst, seed_);
      MachineId best = 0;
      double best_score = -std::numeric_limits<double>::infinity();
      std::uint64_t best_tie = 0;
      for (MachineId p = 0; p < num_machines; ++p) {
        double c_rep = 0.0;
        if (replicas_[e.src] & (std::uint64_t{1} << p)) c_rep += 1.0 + (1.0 - theta_u);
        if (replicas_[e.dst] & (std::uint64_t{1} << p)) c_rep += 1.0 + (1.0 - theta_v);
        const double c_bal = (max_load - load_[p]) / (1e-9 + max_load - min_load);
        const double score = c_rep + options_.lambda * c_bal;
        const std::uint64_t tie = hash_u64(tie_hash, p);
        if (score > best_score || (score == best_score && tie < best_tie)) {
          best = p;
          best_score = score;
          best_tie = tie;
        }
      }

      out.push_back(best);
      load_[best] += 1.0 / shares_[best];  // capability-weighted fill
      replicas_[e.src] |= std::uint64_t{1} << best;
      replicas_[e.dst] |= std::uint64_t{1} << best;
    }
  }

  void retract(const Edge& e, MachineId owner) override {
    if (owner < load_.size()) {
      load_[owner] = std::max(0.0, load_[owner] - 1.0 / shares_[owner]);
    }
    if (e.src < partial_degree_.size() && partial_degree_[e.src] > 0) {
      --partial_degree_[e.src];
    }
    if (e.dst < partial_degree_.size() && partial_degree_[e.dst] > 0) {
      --partial_degree_[e.dst];
    }
  }

  void encode(std::string& out) const override {
    persist::append_u32(out, static_cast<std::uint32_t>(load_.size()));
    for (const double l : load_) persist::append_f64(out, l);
    encode_sparse(out, replicas_);
    encode_sparse(out, partial_degree_);
  }

 private:
  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    const std::uint32_t machines = cursor.read_u32();
    if (machines != load_.size()) {
      throw persist::SnapshotError("hdrf incremental state: machine count mismatch");
    }
    for (double& l : load_) l = cursor.read_f64();
    replicas_ = decode_sparse<std::uint64_t>(cursor, max_vertices);
    partial_degree_ = decode_sparse<EdgeId>(cursor, max_vertices);
    if (replicas_.size() != partial_degree_.size()) {
      throw persist::SnapshotError("hdrf incremental state: vertex array mismatch");
    }
  }

  HdrfOptions options_;
  std::vector<double> shares_;
  std::vector<std::uint64_t> replicas_;
  std::vector<EdgeId> partial_degree_;
  std::vector<double> load_;
};

// --- oblivious -------------------------------------------------------------

class ObliviousIncrementalState final : public IncrementalState {
 public:
  ObliviousIncrementalState(std::span<const double> weights, std::uint64_t seed)
      : IncrementalState(seed), shares_(normalized_weights(weights)) {
    if (shares_.size() > 64) {
      throw std::invalid_argument("oblivious: at most 64 machines supported");
    }
    loads_.assign(shares_.size(), 0);
  }

  PartitionerKind kind() const noexcept override { return PartitionerKind::kOblivious; }

  void ensure_vertices(VertexId count) override {
    if (count > replicas_.size()) {
      replicas_.resize(count, 0);
      assigned_degree_.resize(count, 0);
    }
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    for (const Edge& e : batch) {
      const std::uint64_t au = replicas_.at(e.src);
      const std::uint64_t av = replicas_.at(e.dst);
      const std::uint64_t tie_hash = hash_edge(e.src, e.dst, seed_);

      std::uint64_t candidates;
      if ((au & av) != 0) {
        // Case 1: shared machine — extend locality, no new mirror at all.
        candidates = au & av;
      } else if (au != 0 && av != 0) {
        // Case 2: both placed but disjoint — favour the machine set of the
        // (apparently) higher-degree endpoint, so the hub gains no new mirror.
        candidates = assigned_degree_[e.src] >= assigned_degree_[e.dst] ? au : av;
      } else if ((au | av) != 0) {
        // Case 3: exactly one endpoint placed.
        candidates = au | av;
      } else {
        // Case 4: fresh edge — pure weighted load balancing.
        candidates = 0;
      }

      MachineId m = best_in_mask(candidates, tie_hash);
      if (candidates != 0) {
        // Balance guard (PowerGraph keeps greedy placement within a slack of
        // the least-loaded machine): when the locality pick has drifted too
        // far above its weighted share, fall back to pure load balancing.
        const MachineId least = best_in_mask(0, tie_hash);
        const double cand_load = static_cast<double>(loads_[m]) / shares_[m];
        const double min_load = static_cast<double>(loads_[least]) / shares_[least];
        // The slack grows with the global stream position; edge_index_
        // carries that position across batches (monotone — a retraction
        // does not rewind it, so the slack schedule never tightens
        // retroactively).
        const double slack = 8.0 + 0.05 * static_cast<double>(edge_index_ + 1) /
                                       static_cast<double>(shares_.size());
        if (cand_load > min_load + slack) m = least;
      }
      out.push_back(m);
      ++edge_index_;
      ++loads_[m];
      replicas_[e.src] |= std::uint64_t{1} << m;
      replicas_[e.dst] |= std::uint64_t{1} << m;
      ++assigned_degree_[e.src];
      ++assigned_degree_[e.dst];
    }
  }

  void retract(const Edge& e, MachineId owner) override {
    if (owner < loads_.size() && loads_[owner] > 0) --loads_[owner];
    if (e.src < assigned_degree_.size() && assigned_degree_[e.src] > 0) {
      --assigned_degree_[e.src];
    }
    if (e.dst < assigned_degree_.size() && assigned_degree_[e.dst] > 0) {
      --assigned_degree_[e.dst];
    }
  }

  void encode(std::string& out) const override {
    persist::append_u64(out, edge_index_);
    persist::append_u32(out, static_cast<std::uint32_t>(loads_.size()));
    for (const EdgeId l : loads_) persist::append_u64(out, l);
    encode_sparse(out, replicas_);
    encode_sparse(out, assigned_degree_);
  }

 private:
  /// Least weighted-loaded machine among those set in `mask` (all machines
  /// when mask == 0).  Ties break by a per-edge hash for determinism without
  /// bias.
  MachineId best_in_mask(std::uint64_t mask, std::uint64_t tie_hash) const {
    const auto num_machines = static_cast<MachineId>(shares_.size());
    MachineId best = kInvalidMachine;
    double best_score = std::numeric_limits<double>::infinity();
    std::uint64_t best_tie = 0;
    for (MachineId m = 0; m < num_machines; ++m) {
      if (mask != 0 && (mask & (std::uint64_t{1} << m)) == 0) continue;
      const double score = static_cast<double>(loads_[m]) / shares_[m];
      const std::uint64_t tie = hash_u64(tie_hash, m);
      if (score < best_score || (score == best_score && tie < best_tie) ||
          best == kInvalidMachine) {
        best = m;
        best_score = score;
        best_tie = tie;
      }
    }
    return best;
  }

  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    edge_index_ = cursor.read_u64();
    const std::uint32_t machines = cursor.read_u32();
    if (machines != loads_.size()) {
      throw persist::SnapshotError("oblivious incremental state: machine count mismatch");
    }
    for (EdgeId& l : loads_) l = cursor.read_u64();
    replicas_ = decode_sparse<std::uint64_t>(cursor, max_vertices);
    assigned_degree_ = decode_sparse<EdgeId>(cursor, max_vertices);
    if (replicas_.size() != assigned_degree_.size()) {
      throw persist::SnapshotError("oblivious incremental state: vertex array mismatch");
    }
  }

  std::vector<double> shares_;
  std::vector<std::uint64_t> replicas_;
  std::vector<EdgeId> assigned_degree_;
  std::vector<EdgeId> loads_;
  std::uint64_t edge_index_ = 0;
};

// --- grid ------------------------------------------------------------------
// Each vertex's constraint set is the row + column of its weight-biased home
// machine.  Constraints are a pure function of (vertex, seed, shares), so only
// the per-machine loads are real state; constraint masks are re-derived on
// ensure_vertices and never serialized.

class GridIncrementalState final : public IncrementalState {
 public:
  GridIncrementalState(std::span<const double> weights, std::uint64_t seed)
      : IncrementalState(seed), shares_(normalized_weights(weights)) {
    const auto num_machines = static_cast<MachineId>(shares_.size());
    side_ = static_cast<MachineId>(
        std::lround(std::sqrt(static_cast<double>(num_machines))));
    if (side_ * side_ != num_machines) {
      throw std::invalid_argument("grid: machine count must be a perfect square");
    }
    if (num_machines > 64) throw std::invalid_argument("grid: at most 64 machines supported");
    cum_ = prefix_sum(shares_);
    loads_.assign(num_machines, 0);
  }

  PartitionerKind kind() const noexcept override { return PartitionerKind::kGrid; }

  void ensure_vertices(VertexId count) override {
    const auto old = static_cast<VertexId>(constraints_.size());
    if (count <= old) return;
    constraints_.resize(count);
    for (VertexId v = old; v < count; ++v) {
      const auto home = static_cast<MachineId>(weighted_pick(hash_u64(v, seed_), cum_));
      constraints_[v] = constraint_of(home);
    }
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    const auto num_machines = static_cast<MachineId>(shares_.size());
    for (const Edge& e : batch) {
      std::uint64_t candidates = constraints_.at(e.src) & constraints_.at(e.dst);
      // The intersection of two row+column crosses is never empty, but guard
      // anyway (e.g. hand-built constraint tables in tests).
      if (candidates == 0) candidates = constraints_[e.src] | constraints_[e.dst];

      const std::uint64_t tie_hash = hash_edge(e.src, e.dst, seed_);
      MachineId best = kInvalidMachine;
      double best_score = -std::numeric_limits<double>::infinity();
      std::uint64_t best_tie = 0;
      for (MachineId m = 0; m < num_machines; ++m) {
        if ((candidates & (std::uint64_t{1} << m)) == 0) continue;
        // CCR-guided score: capability share per unit of already-assigned load.
        const double score = shares_[m] / (1.0 + static_cast<double>(loads_[m]));
        const std::uint64_t tie = hash_u64(tie_hash, m);
        if (best == kInvalidMachine || score > best_score ||
            (score == best_score && tie < best_tie)) {
          best = m;
          best_score = score;
          best_tie = tie;
        }
      }
      out.push_back(best);
      ++loads_[best];
    }
  }

  void retract(const Edge& /*e*/, MachineId owner) override {
    if (owner < loads_.size() && loads_[owner] > 0) --loads_[owner];
  }

  void encode(std::string& out) const override {
    persist::append_u64(out, constraints_.size());
    persist::append_u32(out, static_cast<std::uint32_t>(loads_.size()));
    for (const EdgeId l : loads_) persist::append_u64(out, l);
  }

 private:
  /// Row + column machines of `home` in a side x side grid.
  std::uint64_t constraint_of(MachineId home) const {
    const MachineId row = home / side_;
    const MachineId col = home % side_;
    std::uint64_t mask = 0;
    for (MachineId k = 0; k < side_; ++k) {
      mask |= std::uint64_t{1} << (row * side_ + k);
      mask |= std::uint64_t{1} << (k * side_ + col);
    }
    return mask;
  }

  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    const std::uint64_t vertices = cursor.read_u64();
    if (vertices > max_vertices) {
      throw persist::SnapshotError("grid incremental state: " + std::to_string(vertices) +
                                   " vertices exceeds " + std::to_string(max_vertices));
    }
    ensure_vertices(static_cast<VertexId>(vertices));
    const std::uint32_t machines = cursor.read_u32();
    if (machines != loads_.size()) {
      throw persist::SnapshotError("grid incremental state: machine count mismatch");
    }
    for (EdgeId& l : loads_) l = cursor.read_u64();
  }

  std::vector<double> shares_;
  std::vector<double> cum_;
  MachineId side_ = 0;
  std::vector<std::uint64_t> constraints_;
  std::vector<EdgeId> loads_;
};

}  // namespace

bool IncrementalState::supports(PartitionerKind kind) noexcept {
  switch (kind) {
    case PartitionerKind::kHybrid:
    case PartitionerKind::kHdrf:
    case PartitionerKind::kOblivious:
    case PartitionerKind::kGrid:
      return true;
    case PartitionerKind::kRandomHash:
    case PartitionerKind::kChunking:
    case PartitionerKind::kGinger:
      return false;
  }
  return false;
}

std::unique_ptr<IncrementalState> IncrementalState::create(
    PartitionerKind kind, std::span<const double> weights, std::uint64_t seed,
    const PartitionerOptions& options) {
  switch (kind) {
    case PartitionerKind::kHybrid:
      return std::make_unique<HybridIncrementalState>(weights, seed, options.hybrid);
    case PartitionerKind::kHdrf:
      return std::make_unique<HdrfIncrementalState>(weights, seed, options.hdrf);
    case PartitionerKind::kOblivious:
      return std::make_unique<ObliviousIncrementalState>(weights, seed);
    case PartitionerKind::kGrid:
      return std::make_unique<GridIncrementalState>(weights, seed);
    default:
      throw std::invalid_argument(std::string("incremental state: unsupported partitioner ") +
                                  to_string(kind));
  }
}

std::unique_ptr<IncrementalState> IncrementalState::decode(
    PartitionerKind kind, persist::Cursor& cursor,
    std::span<const double> weights, std::uint64_t seed,
    const PartitionerOptions& options, std::uint64_t max_vertices) {
  // A bound above the VertexId range would let the grid count narrow.
  max_vertices = std::min<std::uint64_t>(max_vertices, std::numeric_limits<VertexId>::max());
  auto state = create(kind, weights, seed, options);
  state->decode_state(cursor, max_vertices);
  return state;
}

PartitionAssignment IncrementalState::partition_graph(PartitionerKind kind,
                                                      const EdgeList& graph,
                                                      std::span<const double> weights,
                                                      std::uint64_t seed,
                                                      const PartitionerOptions& options) {
  auto state = create(kind, weights, seed, options);
  state->ensure_vertices(graph.num_vertices());
  PartitionAssignment result;
  result.num_machines = static_cast<MachineId>(weights.size());
  result.edge_to_machine.reserve(graph.num_edges());
  state->assign_batch(graph.edges(), result.edge_to_machine);
  return result;
}

}  // namespace pglb
