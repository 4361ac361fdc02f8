#include "server/db_router.h"

#include <stdexcept>

namespace ntier::server {

const char* to_string(DbTier t) {
  switch (t) {
    case DbTier::kMysql: return "mysql";
    case DbTier::kKv: return "kv";
  }
  return "?";
}

bool db_tier_from_string(const std::string& s, DbTier* out) {
  if (s == "mysql") { *out = DbTier::kMysql; return true; }
  if (s == "kv") { *out = DbTier::kKv; return true; }
  return false;
}

DbRouter::DbRouter(sim::Simulation& simu, kv::KvTier* tier,
                   DbRouterConfig config)
    : sim_(simu), kv_(tier), config_(config), link_(config.link_latency) {
  if (!kv_) throw std::invalid_argument("DbRouter: null kv tier");
}

DbRouter::DbRouter(sim::Simulation& simu, cache::CacheTier* cache,
                   int cache_node, DbRouterConfig config)
    : sim_(simu),
      kv_(cache ? &cache->backing() : nullptr),
      cache_(cache),
      cache_node_(cache_node),
      config_(config),
      link_(config.link_latency) {
  if (!cache_) throw std::invalid_argument("DbRouter: null cache tier");
  if (cache_node_ < 0 || cache_node_ >= cache_->num_nodes())
    throw std::invalid_argument("DbRouter: cache node out of range");
}

DbRouter::DbRouter(sim::Simulation& simu, std::vector<MySqlServer*> replicas,
                   DbRouterConfig config)
    : sim_(simu),
      replicas_(std::move(replicas)),
      config_(config),
      link_(config.link_latency) {
  if (replicas_.empty()) throw std::invalid_argument("DbRouter: no replicas");
  lb::BalancerConfig bc = config_.balancer;
  bc.endpoint_pool_size = config_.pool_per_replica;
  balancer_ = std::make_unique<lb::LoadBalancer>(
      simu, static_cast<int>(replicas_.size()), lb::make_policy(config_.policy),
      lb::make_acquirer(config_.mechanism, bc.blocking), bc);
  if (config_.probe.enabled) {
    probe_pool_ = std::make_unique<probe::ProbePool>(
        simu, static_cast<int>(replicas_.size()),
        [this](int w, probe::ProbePool::ReplyFn done) {
          link_.deliver(sim_, [this, w, done = std::move(done)]() mutable {
            replicas_[static_cast<std::size_t>(w)]->probe_load(
                [this, done = std::move(done)](bool ok, double rif,
                                               double lat_ms) mutable {
                  link_.deliver(sim_, [done = std::move(done), ok, rif,
                                       lat_ms] { done(ok, rif, lat_ms); });
                });
          });
        },
        config_.probe);
    probe_pool_->set_local_load([this](int w) {
      return static_cast<double>(balancer_->record(w).outstanding);
    });
    balancer_->attach_probes(probe_pool_.get());
  }
}

void DbRouter::query(const proto::RequestPtr& req, sim::SimTime demand,
                     bool is_write, sim::Callback done) {
  if (config_.overload.deadlines && req->deadline != sim::SimTime::zero() &&
      sim_.now() > req->deadline) {
    // The request can no longer finish in time; executing this query (and
    // holding a pooled connection through a possibly-stalled replica) would
    // be pure wasted work. Surface a fast SQL error instead.
    req->shed = proto::ShedReason::kDeadlineExpired;
    ++ostats_.deadline_sheds;
    ostats_.wasted_work_avoided_ms += demand.to_millis();
    done();
    return;
  }
  if (kv_) {
    // Key-routed quorum operation (cache-fronted when a cache tier was
    // attached). A failed quorum surfaces exactly like a SQL error: counted
    // here, and the servlet's round trip completes so request conservation
    // is untouched.
    ++routed_;
    auto finish = [this, done = std::move(done)](bool ok) {
      if (!ok) ++errors_;
      done();
    };
    if (cache_) {
      if (is_write)
        cache_->write(cache_node_, req, demand, std::move(finish));
      else
        cache_->read(cache_node_, req, demand, std::move(finish));
    } else if (is_write) {
      kv_->write(req, demand, std::move(finish));
    } else {
      kv_->read(req, demand, std::move(finish));
    }
    return;
  }
  auto trip = std::make_unique<Trip>(Trip{req, demand, -1, std::move(done)});
  balancer_->assign(req, [this, trip = std::move(trip)](int idx) mutable {
    if (idx < 0) {
      ++errors_;  // no replica reachable: the servlet sees a SQL error
      trip->done();
      return;
    }
    ++routed_;
    trip->replica = idx;
    link_.deliver(sim_, [this, trip = std::move(trip)]() mutable {
      MySqlServer* replica = replicas_[static_cast<std::size_t>(trip->replica)];
      const sim::SimTime trip_demand = trip->demand;
      replica->execute(trip_demand, [this, trip = std::move(trip)]() mutable {
        link_.deliver(sim_, [this, trip = std::move(trip)] {
          const int r = trip->replica;
          balancer_->on_response(r, trip->req);
          if (probe_pool_) {
            auto* m = replicas_[static_cast<std::size_t>(r)];
            probe_pool_->observe(r, m->resident(), m->latency_ewma_ms());
          }
          trip->done();
        });
      });
    });
  });
}

}  // namespace ntier::server
