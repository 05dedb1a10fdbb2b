// FleetController + ReplicaSet against real `pglb_serve --listen` children
// (docs/AUTOSCALE.md, docs/FLEET.md): apply() appends, drains and rejoins
// replicas, the kill drill respawns slot 0 onto a fresh ephemeral port, and
// every child is reaped on both the graceful and the error teardown.  The
// cadence thread runs here too, so `scripts/check_tsan.sh` watches it.
//
// PGLB_SERVE_PATH is the pglb_serve binary, passed in by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <thread>
#include <variant>
#include <vector>

#include "autoscale/fleet_controller.hpp"
#include "machine/catalog.hpp"
#include "service/protocol.hpp"

namespace pglb {
namespace {

SpawnOptions serve_options() {
  SpawnOptions options;
  options.serve_path = PGLB_SERVE_PATH;
  options.threads = 1;
  options.scale = 0.002;
  return options;
}

RouterOptions quiet_router() {
  RouterOptions options;
  options.probe_interval_ms = 0;  // health moves only through the set
  return options;
}

std::shared_ptr<TcpBackend> backend(ReplicaSet& fleet, std::size_t slot) {
  return std::dynamic_pointer_cast<TcpBackend>(fleet.router().fleet().backend(slot));
}

/// One metrics round trip straight to the slot's backend.
bool answers(ReplicaSet& fleet, std::size_t slot) {
  const std::string line =
      backend(fleet, slot)->submit(R"({"type":"metrics","id":"t"})").get();
  return line.find("\"counters\"") != std::string::npos;
}

/// True once `pid` is no longer our child: reaped, not a zombie, not alive.
bool reaped(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == -1 && errno == ECHILD;
}

std::vector<pid_t> live_pids(const ReplicaSet& fleet) {
  std::vector<pid_t> pids;
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    if (fleet.child(k).pid > 0) pids.push_back(fleet.child(k).pid);
  }
  return pids;
}

TEST(FleetController, AppendDrainRejoinRespawnAndReap) {
  Registry metrics;
  ReplicaSet fleet(serve_options(), 0, WireMode::kAuto, "test: ", quiet_router(),
                   &metrics);
  fleet.spawn(1);
  fleet.start();
  FleetController controller(fleet, AutoscalerOptions{}, 0);

  // Append: a fresh slot with the chosen spec, registered and serving.
  const MachineSpec& big = machine_by_name("c4.8xlarge");
  controller.apply(ScaleUp{big, 2.0});
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_GT(fleet.child(1).pid, 0);
  EXPECT_TRUE(answers(fleet, 1));
  FleetSample sample = controller.sample();
  ASSERT_EQ(sample.backends.size(), 2u);
  EXPECT_EQ(sample.backends[0].spec_name, "");
  EXPECT_EQ(sample.backends[1].spec_name, "c4.8xlarge");

  // The autoscaler costs the new slot as the spec it rents: with observed p99
  // P, candidate m's predicted p99 is P * C / (C + t_m), so C falls out.
  Autoscaler probe(AutoscalerOptions{});
  sample.p99_route_s = 1.0;
  probe.decide(sample);
  const JsonValue status = parse_json(probe.status_json());
  const JsonValue& candidate = status.find("pareto")->find("candidates")->as_array()[0];
  const double t_m = candidate.find("throughput_ops")->as_number();
  const double predicted = candidate.find("predicted_p99_s")->as_number();
  const PolicyOptions policy;
  const AppProfile& app = profile_for(policy.reference_app);
  const double base_tput =
      throughput_ops(machine_by_name(AutoscalerOptions{}.base_spec), app, policy.traits);
  const double expected = base_tput + throughput_ops(big, app, policy.traits);
  EXPECT_NEAR(predicted * t_m / (1.0 - predicted), expected, expected * 1e-9);
  EXPECT_GT(expected, 2.0 * base_tput);

  // Drain: the slot stays registered, marked draining, its process reaped.
  const pid_t drained_pid = fleet.child(1).pid;
  controller.apply(DrainReplica{"b1", 1});
  EXPECT_EQ(fleet.child(1).pid, -1);
  EXPECT_TRUE(reaped(drained_pid));
  EXPECT_EQ(fleet.router().fleet().status(1).state, BackendState::kDraining);
  EXPECT_EQ(fleet.drained_slot(), 1u);

  // Rejoin before append: the next scale-up revives slot 1 with its spec.
  controller.apply(ScaleUp{machine_by_name("c4.xlarge"), 0.5});
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_GT(fleet.child(1).pid, 0);
  EXPECT_EQ(fleet.router().fleet().status(1).state, BackendState::kUp);
  EXPECT_EQ(controller.sample().backends[1].spec_name, "c4.8xlarge");
  EXPECT_TRUE(answers(fleet, 1));

  // Kill drill: slot 0 dies, then respawns onto a fresh ephemeral port that
  // its backend is re-pointed at.
  EXPECT_TRUE(fleet.kill(0, SIGKILL));
  EXPECT_FALSE(fleet.kill(0, SIGKILL));  // nothing left to signal
  EXPECT_TRUE(fleet.respawn(0));
  EXPECT_FALSE(fleet.respawn(0));  // alive: a second respawn is a no-op
  EXPECT_GT(fleet.child(0).pid, 0);
  EXPECT_NE(fleet.child(0).port, 0);
  EXPECT_EQ(backend(fleet, 0)->port(), fleet.child(0).port);
  EXPECT_TRUE(answers(fleet, 0));

  // Graceful teardown reaps every replica.
  const std::vector<pid_t> pids = live_pids(fleet);
  ASSERT_EQ(pids.size(), 2u);
  fleet.shutdown();
  for (const pid_t pid : pids) EXPECT_TRUE(reaped(pid)) << pid;
}

TEST(FleetController, RejoinedLineSlotStaysLineOnly) {
  Registry metrics;
  ReplicaSet fleet(serve_options(), 0, WireMode::kAuto, "test: ", quiet_router(),
                   &metrics);
  fleet.spawn(2, /*line_only=*/1);
  fleet.start();
  FleetController controller(fleet, AutoscalerOptions{}, 0);
  ASSERT_TRUE(answers(fleet, 0));
  ASSERT_TRUE(answers(fleet, 1));
  EXPECT_FALSE(backend(fleet, 0)->stats().binary);
  EXPECT_TRUE(backend(fleet, 1)->stats().binary);

  // LIFO draining can pick a floor slot; its rejoin must keep --wire=line.
  controller.apply(DrainReplica{"b0", 0});
  controller.apply(ScaleUp{machine_by_name("c4.2xlarge"), 1.0});
  ASSERT_EQ(fleet.size(), 2u);
  ASSERT_GT(fleet.child(0).pid, 0);
  ASSERT_TRUE(answers(fleet, 0));
  EXPECT_FALSE(backend(fleet, 0)->stats().binary);
  fleet.shutdown();
}

TEST(FleetController, CadenceThreadScalesAndDestructorReaps) {
  std::vector<pid_t> pids;
  {
    Registry metrics;
    ReplicaSet fleet(serve_options(), 0, WireMode::kAuto, "test: ", quiet_router(),
                     &metrics);
    fleet.spawn(1);
    fleet.start();
    // Every sample is "pressure" (0 >= 0), so the first tick scales up.
    AutoscalerOptions options;
    options.max_replicas = 2;
    options.pressure_threshold = 0.0;
    options.sustain_samples = 1;
    options.cooldown_ms = 0;
    FleetController controller(fleet, options, 0);
    controller.start(5);
    for (int i = 0; i < 600 && fleet.size() < 2; ++i) {
      (void)controller.status_json();  // races the thread's decide()
      (void)controller.sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    controller.stop();
    controller.stop();  // idempotent
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_FALSE(controller.sample().backends[1].spec_name.empty());
    pids = live_pids(fleet);
    ASSERT_EQ(pids.size(), 2u);
    // No shutdown(): leaving scope is the error path — SIGKILL and reap.
  }
  for (const pid_t pid : pids) EXPECT_TRUE(reaped(pid)) << pid;
}

}  // namespace
}  // namespace pglb
