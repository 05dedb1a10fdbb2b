#pragma once
// The replica fleet the service workloads drive: K spawned
// `pglb_serve --listen` processes behind an in-process Router over
// TcpBackend with binary wire framing — the same composition pglb_router
// serves with.

#include <memory>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "fleet/spawn.hpp"
#include "fleet/tcp_backend.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"
#include "service/metrics.hpp"
#include "service/planner.hpp"
#include "service/protocol.hpp"

namespace perfbench {

/// Two single-threaded replicas: one request worker and a one-thread compute
/// pool (PGLB_THREADS=1 in its environment) each.  No workload keeps more
/// than one request in flight per replica where it measures latency, and a
/// 4-core host then runs at most two busy service threads, which it can do
/// at a steady speed; with more, both the timings and the allocator's peak
/// RSS move from run to run with the neighbours' load.
inline constexpr int kReplicas = 2;
inline constexpr int kReplicaWorkers = 1;
inline constexpr int kReplicaPoolThreads = 1;
inline constexpr double kReplicaProxyScale = 1.0 / 256.0;  // the service default
/// Proxy scale of every replica, as it reaches them through the --scale flag
/// (spawn_serve formats it with std::to_string, so mirrors must parse the
/// same text to build identical proxies).
double replica_proxy_scale();

/// A Planner configured like one replica — the in-process reference the
/// routed plans are compared against.  `threads` as PlannerOptions::threads;
/// `metrics` (optional) receives its counters and stage timings.
std::unique_ptr<pglb::Planner> make_mirror_planner(unsigned threads,
                                                   pglb::ServiceMetrics* metrics = nullptr);

class Fleet {
 public:
  explicit Fleet(const Options& options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::string route(const std::string& line) { return router_->route(line); }
  /// Index of the replica the router sends `request` to first.
  std::size_t home_of(const pglb::PlanRequest& request) const;
  /// One `metrics` response per replica, parsed.
  std::vector<pglb::JsonValue> replica_metrics();
  std::uint16_t port(std::size_t replica) const { return children_[replica].port; }
  /// CPU seconds the replicas have used so far, summed.
  double replica_cpu_seconds() const;
  /// The largest replica's peak resident set so far, in MB.
  double replica_peak_rss_mb() const;
  /// Restrict every replica thread to `cpus`.
  void set_replica_affinity(const cpu_set_t& cpus) const;

  std::uint64_t router_counter(const char* name) const {
    return router_metrics_.counter(name);
  }
  /// Summed transport counters of the backends.
  pglb::TcpBackend::Stats wire_stats() const;

  /// Stop the router, then SIGTERM and reap every replica.  Idempotent.
  void stop();

 private:
  pglb::SpawnOptions spawn_;
  std::vector<pglb::ServeChild> children_;
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<pglb::TcpBackend>> backends_;
  pglb::Registry router_metrics_;
  std::unique_ptr<pglb::Router> router_;
};

/// Service, wire and fleet per-layer metrics from replica `metrics`
/// snapshots around the measured phase plus the router's own counters.
void add_service_layers(Outcome& outcome, const std::vector<pglb::JsonValue>& before,
                        const std::vector<pglb::JsonValue>& after, Fleet& fleet,
                        std::size_t typed_failures);

/// A plan response whose status is not ok (error, timeout, overloaded).
bool typed_failure(const std::string& response);

}  // namespace perfbench
