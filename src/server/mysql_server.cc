#include "server/mysql_server.h"

namespace ntier::server {

MySqlServer::MySqlServer(sim::Simulation& simu, os::Node& node,
                         MySqlConfig config, sim::SimTime trace_window)
    : sim_(simu), node_(node), config_(config), queue_trace_(trace_window) {}

void MySqlServer::execute(sim::SimTime demand, sim::Callback done) {
  ++resident_;
  queue_trace_.set(sim_.now(), resident_);
  Query q{demand, sim_.now(), std::move(done)};
  if (executing_ < config_.max_connections) {
    start(std::move(q));
  } else {
    waiting_.push_back(std::move(q));
  }
}

void MySqlServer::probe_load(
    sim::Function<void(bool, double, double)> done) {
  node_.cpu().submit(config_.probe_demand, [this, done = std::move(done)] {
    done(true, static_cast<double>(resident_), latency_ewma_ms_);
  });
}

void MySqlServer::start(Query q) {
  ++executing_;
  std::uint32_t slot;
  if (free_running_.empty()) {
    slot = static_cast<std::uint32_t>(running_.size());
    running_.emplace_back();
  } else {
    slot = free_running_.back();
    free_running_.pop_back();
  }
  const sim::SimTime demand = q.demand;
  running_[slot] = std::move(q);
  node_.cpu().submit(demand, [this, slot] { complete(slot); });
}

void MySqlServer::complete(std::uint32_t slot) {
  // Free the slot first: on_query_done may start a waiter that reuses it.
  Query& q = running_[slot];
  const sim::SimTime arrived = q.arrived;
  sim::Callback done = std::move(q.done);
  free_running_.push_back(slot);
  on_query_done(arrived);
  if (done) done();
}

void MySqlServer::on_query_done(sim::SimTime arrived) {
  --executing_;
  --resident_;
  ++served_;
  if (config_.log_bytes_per_query > 0)
    node_.page_cache().write_dirty(config_.log_bytes_per_query);
  queue_trace_.set(sim_.now(), resident_);
  if (!waiting_.empty() && executing_ < config_.max_connections) {
    Query next = std::move(waiting_.front());
    waiting_.pop_front();
    start(std::move(next));
  }
  // Fold this query's whole latency (queueing included) into the EWMA the
  // load probes report.
  const double lat_ms = (sim_.now() - arrived).to_seconds() * 1e3;
  constexpr double kAlpha = 0.2;
  latency_ewma_ms_ = latency_ewma_ms_ == 0.0
                         ? lat_ms
                         : (1 - kAlpha) * latency_ewma_ms_ + kAlpha * lat_ms;
}

}  // namespace ntier::server
