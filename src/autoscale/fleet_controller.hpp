#pragma once
// The autoscale actuator (docs/AUTOSCALE.md): the one control loop turning
// Autoscaler decisions into lifecycle moves on a ReplicaSet.  Each cadence
// tick runs sample() -> decide() -> apply().  pglb_router and pglb_loadgen
// both drive it; only their tuning differs.  Actions log to stderr under the
// fleet's log prefix ("autoscale: scale-up ...", "autoscale: drained ...").

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autoscale/autoscaler.hpp"
#include "fleet/replica_set.hpp"
#include "fleet/warming.hpp"

namespace pglb {

class FleetController {
 public:
  /// `fleet` must outlive the controller and have a metrics registry.  Its
  /// current size is the autoscaler's floor (options.min_replicas).
  /// `warm_limit` > 0 peer-warms each scaled-up replica with that many keys.
  FleetController(ReplicaSet& fleet, AutoscalerOptions options, std::size_t warm_limit);
  // The cadence thread holds `this`.
  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Run one step every `cadence_ms` on a background thread.
  void start(std::uint64_t cadence_ms);
  /// Wake and join the thread (idempotent; the destructor does it too).
  void stop();

  /// sample_fleet() with every slot's catalog spec filled in.
  FleetSample sample() const;
  /// ScaleUp rejoins a drained slot, else appends a replica of the chosen
  /// spec, then peer-warms it; DrainReplica SIGTERM-drains the slot; Hold
  /// does nothing.  A failed scale-up is logged, not thrown.
  void apply(const ScaleDecision& decision);

  /// The autoscaler's status block (pglb_router's metrics "autoscale").
  std::string status_json() const { return autoscaler_.status_json(); }

 private:
  ReplicaSet& fleet_;
  Autoscaler autoscaler_;
  WarmingOptions warm_;  ///< max_prefetch 0 = no peer warming
  mutable std::mutex mutex_;
  std::vector<std::string> specs_;  ///< per slot, "" = the base spec
  std::jthread thread_;             ///< last member: stopped and joined first
};

}  // namespace pglb
