// Golden pins for the streaming partitioners (hybrid, HDRF, oblivious, grid).
//
// Each case digests Partitioner::partition's edge_to_machine over two fixed
// power-law graphs and two seeds, with heterogeneous weights, so any change
// to a scorer's output — not just a disagreement between two code paths —
// fails here.  The digests were captured before the batch partitioners were
// folded onto IncrementalState and must never be re-captured to make a
// refactor pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gen/powerlaw.hpp"
#include "partition/factory.hpp"
#include "util/hash.hpp"

namespace pglb {
namespace {

struct GoldenCase {
  const char* name;
  PartitionerKind kind;
  std::size_t machines;
  std::uint64_t digest;
  EdgeId high_degree_threshold = HybridOptions{}.high_degree_threshold;  ///< hybrid only
};

// Test names come from `name`; printing it (not the raw bytes, which include
// padding) keeps the listed test ids stable across runs.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

/// Deterministic, deliberately uneven capability weights.
std::vector<double> heterogeneous_weights(std::size_t machines) {
  std::vector<double> weights(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    weights[m] = 1.0 + 0.5 * static_cast<double>((m * 7) % 5) + 0.01 * static_cast<double>(m);
  }
  return weights;
}

const std::vector<EdgeList>& golden_graphs() {
  static const std::vector<EdgeList> graphs = [] {
    std::vector<EdgeList> out;
    PowerLawConfig dense;
    dense.num_vertices = 4000;
    dense.alpha = 1.9;
    dense.seed = 11;
    // The generator draws power-law OUT-degrees; reversing the edges puts the
    // hubs on the in-side, where hybrid's degree threshold looks.
    const EdgeList forward = generate_powerlaw(dense);
    EdgeList reversed(forward.num_vertices());
    for (const Edge& e : forward.edges()) reversed.add(e.dst, e.src);
    out.push_back(std::move(reversed));
    PowerLawConfig sparse;
    sparse.num_vertices = 2500;
    sparse.alpha = 2.3;
    sparse.seed = 29;
    out.push_back(generate_powerlaw(sparse));
    return out;
  }();
  return graphs;
}

/// Order-sensitive digest of every (graph, seed) assignment of one case.
std::uint64_t assignment_digest(const GoldenCase& c) {
  PartitionerOptions options;
  options.hybrid.high_degree_threshold = c.high_degree_threshold;
  const auto partitioner = make_partitioner(c.kind, options);
  const std::vector<double> weights = heterogeneous_weights(c.machines);
  std::uint64_t h = hash_u64(c.machines, 0x601D);
  for (const EdgeList& graph : golden_graphs()) {
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{77}}) {
      const PartitionAssignment a = partitioner->partition(graph, weights, seed);
      h = hash_combine(h, a.num_machines);
      h = hash_combine(h, a.edge_to_machine.size());
      for (const MachineId m : a.edge_to_machine) h = hash_combine(h, m);
    }
  }
  return h;
}

TEST(StreamingGoldenGraphs, ExerciseBothHybridBranches) {
  // The default-threshold hybrid pins only guard the vertex-cut branch if
  // some vertex actually crosses the threshold.
  const auto in_degree = golden_graphs().front().in_degrees();
  const EdgeId threshold = HybridOptions{}.high_degree_threshold;
  EXPECT_GT(*std::max_element(in_degree.begin(), in_degree.end()), threshold);
  EXPECT_LE(*std::min_element(in_degree.begin(), in_degree.end()), threshold);
}

class StreamingGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(StreamingGolden, AssignmentDigestIsPinned) {
  const GoldenCase& c = GetParam();
  const std::uint64_t actual = assignment_digest(c);
  EXPECT_EQ(actual, c.digest) << std::hex << "actual 0x" << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, StreamingGolden,
    ::testing::Values(
        GoldenCase{"hybrid_m2", PartitionerKind::kHybrid, 2, 0xcffbe10031166b18ull},
        GoldenCase{"hybrid_m3", PartitionerKind::kHybrid, 3, 0x6e401d7002eb409cull},
        GoldenCase{"hybrid_m4", PartitionerKind::kHybrid, 4, 0x5ecb7c0d4a709f0dull},
        GoldenCase{"hybrid_m9", PartitionerKind::kHybrid, 9, 0xf345497e92319e72ull},
        GoldenCase{"hybrid_m64", PartitionerKind::kHybrid, 64, 0xdf5fcb13cfd266a2ull},
        GoldenCase{"hybrid_t8_m2", PartitionerKind::kHybrid, 2, 0x5142e4a8228dc57ull, 8},
        GoldenCase{"hybrid_t8_m3", PartitionerKind::kHybrid, 3, 0x2757ba89946325b8ull, 8},
        GoldenCase{"hybrid_t8_m4", PartitionerKind::kHybrid, 4, 0x68337be8450bad31ull, 8},
        GoldenCase{"hybrid_t8_m9", PartitionerKind::kHybrid, 9, 0x140b248e28665ac1ull, 8},
        GoldenCase{"hybrid_t8_m64", PartitionerKind::kHybrid, 64, 0x33ab3d8bc3cddd97ull, 8},
        GoldenCase{"hdrf_m2", PartitionerKind::kHdrf, 2, 0x96275c9f4bf63725ull},
        GoldenCase{"hdrf_m3", PartitionerKind::kHdrf, 3, 0xc88c02b1fd509170ull},
        GoldenCase{"hdrf_m4", PartitionerKind::kHdrf, 4, 0xccf4d91b666a03f9ull},
        GoldenCase{"hdrf_m9", PartitionerKind::kHdrf, 9, 0xa4a442090cba90b9ull},
        GoldenCase{"hdrf_m64", PartitionerKind::kHdrf, 64, 0x56b6b8792764a254ull},
        GoldenCase{"oblivious_m2", PartitionerKind::kOblivious, 2, 0x9372aa5c94779a48ull},
        GoldenCase{"oblivious_m3", PartitionerKind::kOblivious, 3, 0x2438b51257855e5dull},
        GoldenCase{"oblivious_m4", PartitionerKind::kOblivious, 4, 0xfa7ecdac9a381f35ull},
        GoldenCase{"oblivious_m9", PartitionerKind::kOblivious, 9, 0x5f53e31c84d79be2ull},
        GoldenCase{"oblivious_m64", PartitionerKind::kOblivious, 64, 0xa29623a341ca692cull},
        GoldenCase{"grid_m4", PartitionerKind::kGrid, 4, 0xeda99c1b2d9c4309ull},
        GoldenCase{"grid_m9", PartitionerKind::kGrid, 9, 0xfc2f4bcaaf60fef5ull},
        GoldenCase{"grid_m64", PartitionerKind::kGrid, 64, 0x463d84c921c1a577ull}),
    [](const ::testing::TestParamInfo<GoldenCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace pglb
