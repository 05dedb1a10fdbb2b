#include "autoscale/fleet_controller.hpp"

#include <chrono>
#include <condition_variable>
#include <iostream>

namespace pglb {

FleetController::FleetController(ReplicaSet& fleet, AutoscalerOptions options,
                                 std::size_t warm_limit)
    : fleet_(fleet),
      // The autoscaler's floor is what the caller spawned.
      autoscaler_((options.min_replicas = fleet.size(), std::move(options)),
                  fleet.metrics()),
      specs_(fleet.size()) {
  warm_.per_backend_limit = warm_.max_prefetch = warm_limit;
}

void FleetController::start(std::uint64_t cadence_ms) {
  thread_ = std::jthread([this, cadence_ms](std::stop_token stop) {
    std::mutex mutex;
    std::condition_variable_any wake;
    std::unique_lock<std::mutex> lock(mutex);
    // Sleeps one cadence per step; a stop request wakes it at once.
    while (!wake.wait_for(lock, stop, std::chrono::milliseconds(cadence_ms),
                          [] { return false; }) &&
           !stop.stop_requested()) {
      apply(autoscaler_.decide(sample()));
    }
  });
}

void FleetController::stop() {
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
}

FleetSample FleetController::sample() const {
  FleetSample sample = sample_fleet(fleet_.router().fleet(), *fleet_.metrics());
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < sample.backends.size() && i < specs_.size(); ++i) {
    sample.backends[i].spec_name = specs_[i];
  }
  return sample;
}

void FleetController::apply(const ScaleDecision& decision) {
  if (const auto* up = std::get_if<ScaleUp>(&decision)) {
    try {
      // Prefer rejoining a drained slot: same tag, options and spec, so its
      // keys rendezvous straight back.  Otherwise rent the chosen spec.
      std::size_t slot = fleet_.drained_slot();
      std::string what = "rejoin";
      if (!fleet_.respawn(slot)) {
        slot = fleet_.append(up->weight);
        what = up->spec.name;
        std::lock_guard<std::mutex> lock(mutex_);
        specs_.push_back(up->spec.name);  // append returned slot specs_.size()
      }
      std::cerr << fleet_.log_prefix() << "autoscale: scale-up b" << slot << " (" << what
                << ") on port " << fleet_.child(slot).port << "\n";
      if (warm_.max_prefetch > 0) {
        const WarmReport warm =
            warm_replica(fleet_.router().fleet(), slot, warm_, fleet_.metrics());
        autoscaler_.record_warming(warm.keys_owned, warm.keys_warmed);
        std::cerr << fleet_.log_prefix() << "warming: b" << slot << " owned "
                  << warm.keys_owned << "/" << warm.keys_seen
                  << " key(s), warmed " << warm.keys_warmed << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << fleet_.log_prefix() << "autoscale: scale-up failed: " << e.what() << "\n";
    }
  } else if (const auto* drain = std::get_if<DrainReplica>(&decision)) {
    if (fleet_.drain(drain->index)) {
      std::cerr << fleet_.log_prefix() << "autoscale: drained " << drain->backend << "\n";
    }
  }
}

}  // namespace pglb
