#include "cloud/server.h"

namespace cleaks::cloud {

Server::Server(std::string name, const CloudServiceProfile& profile,
               std::uint64_t seed, SimDuration prior_uptime)
    : name_(std::move(name)) {
  host_ = std::make_unique<kernel::Host>(name_, profile.hardware, seed,
                                         /*boot_time=*/0);
  host_->set_tick_duration(kSecond);  // data-center scale default
  if (prior_uptime > 0) host_->seed_prior_uptime(prior_uptime);
  fs_ = std::make_unique<fs::PseudoFs>(*host_);
  runtime_ = std::make_unique<container::ContainerRuntime>(*host_, *fs_,
                                                           profile.policy);
}

void Server::unpark_() {
  if (!parked_) return;
  const SimDuration owed = *facility_now_ - parked_at_;
  if (owed > 0) host_->defer_idle(owed);
  parked_ = false;
  wake_list_->push_back(index_);
}

void Server::settle_() {
  unpark_();
  host_->coast_sync();
}

void Server::enable_benign_load(std::uint64_t seed,
                                workload::DiurnalParams params) {
  settle_();
  benign_load_ =
      std::make_unique<workload::DiurnalLoadGenerator>(*host_, seed, params);
}

bool Server::idle_eligible() const noexcept {
  return benign_load_ == nullptr && runtime_->containers().empty() &&
         host_->coast_eligible();
}

bool Server::step(SimDuration dt) {
  // A coasting step only adds to the deferred time, so it skips the sync.
  unpark_();
  if (idle_eligible()) {
    host_->defer_idle(dt);
    return true;
  }
  host_->coast_sync();
  if (benign_load_) benign_load_->apply(host_->now());
  host_->advance(dt);
  return false;
}

}  // namespace cleaks::cloud
