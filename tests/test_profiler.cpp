#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/ccr.hpp"
#include "gen/powerlaw.hpp"
#include "obs/registry.hpp"
#include "service/planner.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;

EdgeList small_graph() {
  PowerLawConfig config;
  config.num_vertices = 4000;
  config.alpha = 2.1;
  config.seed = 61;
  return generate_powerlaw(config);
}

TEST(ProfileSingleMachine, FasterMachineProfilesFaster) {
  const auto g = small_graph();
  for (const AppKind app : {AppKind::kPageRank, AppKind::kConnectedComponents,
                            AppKind::kColoring, AppKind::kTriangleCount}) {
    const double slow = profile_single_machine(machine_by_name("xeon_server_s"), app, g, kScale);
    const double fast = profile_single_machine(machine_by_name("xeon_server_l"), app, g, kScale);
    EXPECT_GT(slow, fast) << to_string(app);
  }
}

TEST(ProfileSingleMachine, DeterministicVirtualTime) {
  const auto g = small_graph();
  const double a =
      profile_single_machine(machine_by_name("c4.2xlarge"), AppKind::kPageRank, g, kScale);
  const double b =
      profile_single_machine(machine_by_name("c4.2xlarge"), AppKind::kPageRank, g, kScale);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(ProfileSingleMachine, PartitionSeedIsFixedByDesign) {
  // A profile entry must be a pure function of (machine class, app, proxy):
  // the service's profile cache keys carry no seed, so a cached entry has to
  // be byte-identical to a fresh run, and CCR is meant to capture hardware,
  // not partition sampling.  The partition seed is therefore a pinned
  // constant, not plumbed from the pipeline seed.  On the one-machine
  // profiling cluster the partition is degenerate anyway (every edge lands on
  // machine 0), so no information is lost by fixing it.
  EXPECT_EQ(kProfilingPartitionSeed, 0u);
  const auto g = small_graph();
  const double a =
      profile_single_machine(machine_by_name("xeon_server_s"), AppKind::kPageRank, g, kScale);
  const double b =
      profile_single_machine(machine_by_name("xeon_server_s"), AppKind::kPageRank, g, kScale);
  EXPECT_EQ(a, b);
}

TEST(CcrPool, InsertAndQueryNearestAlpha) {
  CcrPool pool;
  pool.insert({AppKind::kPageRank, 1.95, {10.0, 4.0}});
  pool.insert({AppKind::kPageRank, 2.3, {10.0, 2.0}});

  const auto near_dense = pool.ccr_for(AppKind::kPageRank, 1.9);
  EXPECT_DOUBLE_EQ(near_dense[1], 2.5);  // from the 1.95 entry
  const auto near_sparse = pool.ccr_for(AppKind::kPageRank, 2.4);
  EXPECT_DOUBLE_EQ(near_sparse[1], 5.0);  // from the 2.3 entry
}

TEST(CcrPool, MissingAppThrows) {
  CcrPool pool;
  pool.insert({AppKind::kPageRank, 2.1, {1.0, 2.0}});
  EXPECT_TRUE(pool.has_app(AppKind::kPageRank));
  EXPECT_FALSE(pool.has_app(AppKind::kColoring));
  EXPECT_THROW(pool.ccr_for(AppKind::kColoring, 2.1), std::out_of_range);
  EXPECT_THROW(pool.mean_ccr_for(AppKind::kColoring), std::out_of_range);
}

TEST(CcrPool, MeanCcrAveragesProxies) {
  CcrPool pool;
  pool.insert({AppKind::kColoring, 1.95, {4.0, 2.0}});
  pool.insert({AppKind::kColoring, 2.3, {8.0, 2.0}});
  const auto mean = pool.mean_ccr_for(AppKind::kColoring);
  // Entry 1: times {4,2} -> CCR {1, 2}; entry 2: times {8,2} -> CCR {1, 4}.
  EXPECT_DOUBLE_EQ(mean[0], 1.0);
  EXPECT_DOUBLE_EQ(mean[1], 3.0);
}

TEST(CcrPool, RejectsInconsistentGroupCounts) {
  CcrPool pool;
  pool.insert({AppKind::kPageRank, 2.1, {1.0, 2.0}});
  EXPECT_THROW(pool.insert({AppKind::kPageRank, 2.3, {1.0}}), std::invalid_argument);
  EXPECT_THROW(pool.insert({AppKind::kPageRank, 2.3, {}}), std::invalid_argument);
}

TEST(ProfileCluster, OneEntryPerAppPerProxy) {
  ProxySuite suite(kScale);
  const auto cluster = testing::case2_cluster();
  const AppKind apps[] = {AppKind::kPageRank, AppKind::kTriangleCount};
  const auto pool = profile_cluster(cluster, suite, apps);
  EXPECT_EQ(pool.entries().size(), 6u);  // 2 apps x 3 proxies
  EXPECT_EQ(pool.num_groups(), 2u);
  for (const auto& entry : pool.entries()) {
    EXPECT_GT(entry.group_times[0], entry.group_times[1])
        << "xeon_server_l must out-profile xeon_server_s";
  }
}

TEST(ProfileCluster, GroupsCollapseIdenticalMachines) {
  ProxySuite suite(kScale);
  const auto& m = machine_by_name("c4.2xlarge");
  const Cluster cluster({m, m, m});  // one group only
  const AppKind apps[] = {AppKind::kPageRank};
  const auto pool = profile_cluster(cluster, suite, apps);
  EXPECT_EQ(pool.num_groups(), 1u);
  const auto ccr = pool.ccr_for(AppKind::kPageRank, 2.1);
  EXPECT_DOUBLE_EQ(ccr[0], 1.0);
}

TEST(ProfileGroupsOnGraph, MatchesSingleMachineProfiles) {
  const auto g = small_graph();
  const auto cluster = testing::case2_cluster();
  const auto times = profile_groups_on_graph(cluster, AppKind::kPageRank, g, kScale);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(
      times[0],
      profile_single_machine(machine_by_name("xeon_server_s"), AppKind::kPageRank, g, kScale));
}

// Golden pins for every profile time.  The digests were captured before
// profiling was restructured and must never be re-captured to make a change
// pass: a profile time is part of every plan's bytes (CCR, weights, cache
// entries, persisted time databases).

constexpr AppKind kAllApps[] = {AppKind::kPageRank,      AppKind::kColoring,
                                AppKind::kConnectedComponents, AppKind::kTriangleCount,
                                AppKind::kSssp,          AppKind::kKCore};

std::uint64_t mix_time(std::uint64_t h, double seconds) {
  return hash_combine(h, std::bit_cast<std::uint64_t>(seconds));
}

const ProxySuite& golden_suite() {
  static const ProxySuite suite(kScale);  // the three Table II proxies
  return suite;
}

/// Four classes, two of them repeated, so grouping is exercised too.
Cluster golden_cluster() {
  return Cluster({machine_by_name("c4.xlarge"), machine_by_name("r3.2xlarge"),
                  machine_by_name("c4.xlarge"), machine_by_name("xeon_server_l"),
                  machine_by_name("c4.8xlarge"), machine_by_name("r3.2xlarge")});
}

TEST(ProfileGolden, SingleMachineTimesArePinned) {
  // One digest per app over (default proxies x all Table I machines).
  const std::uint64_t expected[] = {0x1be13c21275d803bull, 0x24e822b633a96a3full,
                                    0xb516ca9736289ff1ull, 0x9ace70a9f601c189ull,
                                    0x9586ff7504219582ull, 0x7d618f75ee860fa1ull};
  for (std::size_t a = 0; a < std::size(kAllApps); ++a) {
    std::uint64_t h = hash_u64(a, 0x9F0F);
    for (const ProxySuite::Proxy& proxy : golden_suite().proxies()) {
      for (const MachineSpec& machine : table1_machines()) {
        h = mix_time(h, profile_single_machine(machine, kAllApps[a], proxy.graph, kScale));
      }
    }
    EXPECT_EQ(h, expected[a]) << to_string(kAllApps[a]) << std::hex << " actual 0x" << h;
  }
}

TEST(ProfileGolden, ClusterPoolIsPinned) {
  const CcrPool pool = profile_cluster(golden_cluster(), golden_suite(), kAllApps);
  ASSERT_EQ(pool.entries().size(), std::size(kAllApps) * golden_suite().proxies().size());
  std::uint64_t h = hash_u64(pool.num_groups(), 0xC0C0);
  for (const CcrPool::Entry& entry : pool.entries()) {
    h = hash_combine(h, static_cast<std::uint64_t>(entry.app));
    h = mix_time(h, entry.proxy_alpha);
    for (const double t : entry.group_times) h = mix_time(h, t);
  }
  EXPECT_EQ(h, 0xdcf073d775189e78ull) << std::hex << "actual 0x" << h;
}

TEST(ProfileGolden, GroupsOnGraphArePinned) {
  const auto g = small_graph();
  const Cluster cluster(std::vector<MachineSpec>(table1_machines().begin(),
                                                 table1_machines().end()));
  std::uint64_t h = 0x6A6A;
  for (const AppKind app : kAllApps) {
    for (const double t : profile_groups_on_graph(cluster, app, g, kScale)) h = mix_time(h, t);
  }
  EXPECT_EQ(h, 0xd15e274f32ca0db2ull) << std::hex << "actual 0x" << h;
}

// --- one shared run per (app, graph), timed per machine class -------------

TEST(ProfileMachines, EveryClassMatchesARunOfItsOwn) {
  const auto g = small_graph();
  const auto machines = table1_machines();
  for (const AppKind app : kAllApps) {
    const std::vector<double> shared = profile_machines(machines, app, g, kScale);
    ASSERT_EQ(shared.size(), machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i) {
      EXPECT_EQ(shared[i], profile_single_machine(machines[i], app, g, kScale))
          << to_string(app) << " on " << machines[i].name;
    }
  }
}

TEST(ProfileMachines, CancelledTokenThrowsAtTheCellBeforeTheRun) {
  const auto g = small_graph();
  const CancelToken token;
  token.cancel();
  const std::uint64_t runs_before = global_registry().counter("engine.runs");
  try {
    profile_machines(table1_machines(), AppKind::kPageRank, g, kScale, &token);
    FAIL() << "a cancelled token must stop profiling";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.site(), "profiler.cell");
  }
  EXPECT_EQ(global_registry().counter("engine.runs"), runs_before);
}

struct FaultGuard {
  ~FaultGuard() { FaultRegistry::instance().clear(); }
};

PlannerOptions tiny_planner_options() {
  PlannerOptions options;
  options.proxy_scale = 0.002;
  options.threads = 3;  // the per-class cells fan out for real
  return options;
}

/// Three machine classes (one repeated machine) for one app.
PlanRequest three_class_request() {
  PlanRequest request;
  request.id = "cold";
  request.app = AppKind::kPageRank;
  request.machines = {"m4.2xlarge", "c4.2xlarge", "r3.2xlarge", "c4.2xlarge"};
  request.vertices = 1'000'000;
  request.edges = 10'000'000;
  return request;
}

TEST(SharedProfileRun, ColdPlanRunsOnceAndCountsEveryClass) {
  ServiceMetrics metrics;
  Planner planner(tiny_planner_options(), &metrics);
  const PlanRequest request = three_class_request();
  const std::uint64_t runs_before = global_registry().counter("engine.runs");
  const std::uint64_t cells_before = global_registry().counter("profiler.cells");
  const PlanResponse response = planner.plan(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.degraded.empty());
  EXPECT_EQ(global_registry().counter("engine.runs") - runs_before, 1u);
  EXPECT_EQ(global_registry().counter("profiler.cells") - cells_before, 3u);
  EXPECT_EQ(metrics.counter("profile_runs"), 3u);

  // The CCR equals one single-machine run per machine on the same proxy.
  const ProxySuite suite(tiny_planner_options().proxy_scale, PlannerOptions{}.proxy_seed);
  const ProxySuite::Proxy& proxy = suite.nearest(response.proxy_alpha);
  ASSERT_EQ(proxy.alpha, response.proxy_alpha);
  std::vector<double> times;
  for (const std::string& name : request.machines) {
    times.push_back(profile_single_machine(machine_by_name(name), request.app, proxy.graph,
                                           tiny_planner_options().proxy_scale));
  }
  EXPECT_EQ(response.ccr, ccr_from_times(times));
}

TEST(SharedProfileRun, SecondCellFaultDegradesThePlan) {
  const FaultGuard guard;
  FaultRegistry::instance().configure("profiler.cell=fail@nth:2");
  ServiceMetrics metrics;
  Planner planner(tiny_planner_options(), &metrics);
  const std::uint64_t runs_before = global_registry().counter("engine.runs");
  const PlanResponse response = planner.plan(three_class_request());
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.degraded, "thread_count");
  EXPECT_EQ(FaultRegistry::instance().injected_count("profiler.cell"), 1u);
  EXPECT_EQ(global_registry().counter("engine.runs"), runs_before);
}

}  // namespace
}  // namespace pglb
