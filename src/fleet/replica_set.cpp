#include "fleet/replica_set.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <iostream>
#include <string>

#include "util/portfile.hpp"

namespace pglb {

namespace {

std::string tag_for(std::size_t slot) { return "b" + std::to_string(slot); }

}  // namespace

ReplicaSet::ReplicaSet(SpawnOptions spawn, std::uint16_t base_port, WireMode wire,
                       std::string log_prefix, RouterOptions router_options,
                       Registry* metrics)
    : base_(std::move(spawn)),
      base_port_(base_port),
      wire_(wire),
      log_prefix_(std::move(log_prefix)),
      metrics_(metrics),
      router_(std::make_unique<Router>(std::move(router_options), metrics)) {
  if (base_port_ == 0 && base_.port_dir.empty()) base_.port_dir = make_port_dir();
  // The path is unique per run: liveness checks (smoke tests) pgrep for it
  // instead of a fixed --listen port pattern.
  if (base_port_ == 0) std::cerr << log_prefix_ << "port-dir " << base_.port_dir << "\n";
}

ReplicaSet::~ReplicaSet() { stop_all(SIGKILL); }

std::uint16_t ReplicaSet::launch_locked(std::size_t slot) {
  Slot& s = slots_[slot];
  const auto port = static_cast<std::uint16_t>(base_port_ == 0 ? 0 : base_port_ + slot);
  s.child = spawn_serve(s.options, port, tag_for(slot));
  return wait_serve_ready(s.child, s.options, tag_for(slot), 30'000);
}

bool ReplicaSet::reap_locked(std::size_t slot, int signal) {
  // A gone slot carries pid -1, and kill(-1) would signal every process.
  if (slot >= slots_.size() || slots_[slot].child.pid <= 0) return false;
  if (signal != 0) ::kill(slots_[slot].child.pid, signal);
  ::waitpid(slots_[slot].child.pid, nullptr, 0);
  slots_[slot].child.pid = -1;
  return true;
}

void ReplicaSet::stop_all(int signal) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Signal everyone before reaping anyone, so the replicas drain in parallel.
  for (const Slot& slot : slots_) {
    if (slot.child.pid > 0) ::kill(slot.child.pid, signal);
  }
  for (std::size_t k = 0; k < slots_.size(); ++k) reap_locked(k, 0);
}

void ReplicaSet::spawn(std::size_t count, std::size_t line_only) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = slots_.size(); count-- > 0; ++k) {
    slots_.push_back({{}, base_, nullptr});
    if (k < line_only) slots_[k].options.wire = "line";
    launch_locked(k);
  }
}

void ReplicaSet::start(const std::vector<std::uint16_t>& endpoints,
                       const std::vector<double>& weights) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    slots_[k].backend = std::make_shared<TcpBackend>(
        tag_for(k), endpoints.empty() ? slots_[k].child.port : endpoints[k],
        "127.0.0.1", wire_);
    router_->add_backend(slots_[k].backend, weights.empty() ? 1.0 : weights[k]);
  }
  router_->start();
}

bool ReplicaSet::respawn(std::size_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size() || slots_[slot].child.pid > 0) return false;
  // Same name and rendezvous keys, maybe a new port.  The replica just
  // proved it listens: clear the backoff accrued against the empty slot.
  slots_[slot].backend->set_port(launch_locked(slot));
  router_->fleet().set_draining(slot, false);
  router_->fleet().record_success(slot);
  return true;
}

std::size_t ReplicaSet::append(double weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t slot = slots_.size();
  slots_.push_back({{}, base_, nullptr});
  try {
    launch_locked(slot);
  } catch (...) {
    reap_locked(slot, SIGKILL);  // never keep a slot the router lacks
    slots_.pop_back();
    throw;
  }
  slots_[slot].backend = std::make_shared<TcpBackend>(
      tag_for(slot), slots_[slot].child.port, "127.0.0.1", wire_);
  router_->add_backend(slots_[slot].backend, weight);
  return slot;
}

bool ReplicaSet::drain(std::size_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size() || slots_[slot].child.pid <= 0) return false;
  router_->fleet().set_draining(slot, true);
  return reap_locked(slot, SIGTERM);
}

bool ReplicaSet::kill(std::size_t slot, int signal) {
  std::lock_guard<std::mutex> lock(mutex_);
  return reap_locked(slot, signal);
}

void ReplicaSet::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (router_) router_->stop();
    router_.reset();
    for (Slot& slot : slots_) slot.backend.reset();
  }
  stop_all(SIGTERM);
}

std::size_t ReplicaSet::drained_slot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t k = 0;
  while (k < slots_.size() && (slots_[k].child.pid > 0 ||
                               router_->fleet().status(k).state != BackendState::kDraining)) {
    ++k;
  }
  return k;
}

std::size_t ReplicaSet::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

ServeChild ReplicaSet::child(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.at(slot).child;
}

}  // namespace pglb
