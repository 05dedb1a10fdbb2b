#pragma once
// The one replica lifecycle (docs/FLEET.md): the `pglb_serve --listen`
// processes behind one Router.  Slot k owns its child, the SpawnOptions it was
// first spawned with, and the TcpBackend registered as "b<k>".  Nothing else
// spawns, respawns, drains or reaps replicas; one mutex serializes the moves.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "fleet/spawn.hpp"
#include "fleet/tcp_backend.hpp"

namespace pglb {

class ReplicaSet {
 public:
  /// `base_port` 0 = ephemeral ports published in `spawn.port_dir` (default:
  /// a fresh private directory), logged to stderr as "<log_prefix>port-dir
  /// <dir>"; nonzero = slot k listens on base_port + k.
  ReplicaSet(SpawnOptions spawn, std::uint16_t base_port, WireMode wire,
             std::string log_prefix, RouterOptions router_options = {},
             Registry* metrics = nullptr);
  /// The error path: SIGKILL and reap every replica still alive.
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Fork `count` replicas, the first `line_only` as --wire=line, each
  /// waited on until it listens.
  void spawn(std::size_t count, std::size_t line_only = 0);
  /// Register each slot's TcpBackend — at `endpoints[k]` (a proxy) or else its
  /// own port, weighted by `weights` (empty = 1.0) — and start the router.
  void start(const std::vector<std::uint16_t>& endpoints = {},
             const std::vector<double>& weights = {});

  /// Respawn a dead slot in place (same tag and options), re-point its backend
  /// at the new port, un-drain it and mark it healthy.  False if it is alive
  /// or out of range.
  bool respawn(std::size_t slot);
  /// Spawn one more replica with the base options, registered at `weight`.
  std::size_t append(double weight);
  /// Mark the slot draining, SIGTERM it (a --snapshot-dir replica saves its
  /// warm state) and reap it.  False if the slot is not alive.
  bool drain(std::size_t slot);
  /// The failure drill: send `signal` and reap, leaving the router to notice.
  bool kill(std::size_t slot, int signal);
  /// Normal teardown: stop and destroy the router — closed connections let a
  /// replica blocked in serve_stream drain — then SIGTERM and reap everyone.
  void shutdown();

  /// First slot that is gone and marked draining (a rejoin), or size().
  std::size_t drained_slot() const;
  std::size_t size() const;
  ServeChild child(std::size_t slot) const;  ///< pid -1 once reaped
  Router& router() { return *router_; }
  Registry* metrics() const noexcept { return metrics_; }
  const SpawnOptions& spawn_options() const noexcept { return base_; }
  const std::string& log_prefix() const noexcept { return log_prefix_; }

 private:
  struct Slot {
    ServeChild child;
    SpawnOptions options;
    std::shared_ptr<TcpBackend> backend;
  };

  /// Fork the slot's replica and wait until it listens; returns the port.
  std::uint16_t launch_locked(std::size_t slot);
  bool reap_locked(std::size_t slot, int signal);
  void stop_all(int signal);

  SpawnOptions base_;
  std::uint16_t base_port_;
  WireMode wire_;
  std::string log_prefix_;
  Registry* metrics_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::unique_ptr<Router> router_;
};

}  // namespace pglb
