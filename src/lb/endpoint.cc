#include "lb/endpoint.h"

#include <stdexcept>

namespace ntier::lb {

std::string to_string(MechanismKind k) {
  switch (k) {
    case MechanismKind::kBlocking: return "blocking_get_endpoint";
    case MechanismKind::kNonBlocking: return "modified_get_endpoint";
    case MechanismKind::kQueueing: return "queueing_pool";
  }
  return "?";
}

namespace {

// Algorithm 1: with retry counted in units of JK_SLEEP_DEF, polls happen
// at t = 0, S, 2S, ... while retry*S < timeout; then the call fails.
struct PollState {
  sim::Simulation& simu;
  EndpointPool& pool;
  BlockingAcquirer::Params params;
  AcquireFn done;
  sim::SimTime waited;
  EndpointAcquirer::TraceContext trace;
};

// Exact Algorithm-1 sequencing after the failed check at t = 0: a failed
// check is always followed by a sleep, and the loop condition
// (retry * JK_SLEEP_DEF < timeout) is evaluated on wake-up. With the
// defaults this checks at 0/100/200 ms and reports failure at 300 ms. The
// pending wake-up event is the state's only owner.
void sleep_then_poll(std::unique_ptr<PollState> st) {
  st->waited += st->params.sleep_interval;
  const sim::SimTime sleep = st->params.sleep_interval;
  sim::Simulation& simu = st->simu;
  simu.after(sleep, [st = std::move(st)]() mutable {
    if (st->waited >= st->params.acquire_timeout) {
      st->done(false);
      return;
    }
    if (st->pool.try_acquire()) {
      st->done(true);
      return;
    }
    // The initial failed check is covered by the balancer's attempt event;
    // wake-up re-checks are the 100 ms sleeps the worker thread spends
    // parked.
    NTIER_TRACE_EVENT(st->trace.trace, st->simu.now(),
                      obs::EventKind::kGetEndpointPoll, obs::Tier::kBalancer,
                      st->trace.node, st->trace.worker, st->trace.request,
                      st->waited.to_millis());
    sleep_then_poll(std::move(st));
  });
}

}  // namespace

void BlockingAcquirer::acquire(sim::Simulation& simu, EndpointPool& pool,
                               const WorkerRecord&, AcquireFn done) {
  if (pool.try_acquire()) {
    done(true);
    return;
  }
  sleep_then_poll(std::make_unique<PollState>(PollState{
      simu, pool, params_, std::move(done), sim::SimTime::zero(), trace_ctx_}));
}

void NonBlockingAcquirer::acquire(sim::Simulation&, EndpointPool& pool,
                                  const WorkerRecord&, AcquireFn done) {
  done(pool.try_acquire());
}

void QueueingAcquirer::acquire(sim::Simulation& simu, EndpointPool& pool,
                               const WorkerRecord&, AcquireFn done) {
  if (pool.try_acquire()) {
    done(true);
    return;
  }
  if (params_.wait_timeout <= sim::SimTime::zero()) {
    pool.acquire_or_wait(std::move(done));
    return;
  }
  // Bounded wait: whichever of {grant/drain, timeout} fires first settles
  // the acquisition; the timeout *cancels* the waiter so a later release
  // cannot hand a slot to a caller that already gave up (that slot would
  // never be returned).
  struct WaitState {
    AcquireFn done;
    EndpointPool::WaiterId id = 0;
    bool settled = false;
  };
  auto st = std::make_shared<WaitState>();
  st->done = std::move(done);
  const auto id = pool.acquire_or_wait([st](bool ok) {
    st->settled = true;
    st->done(ok);
  });
  if (st->settled) return;  // granted (or drained) synchronously
  st->id = id;
  simu.after(params_.wait_timeout, [st, &pool] {
    if (st->settled) return;
    if (pool.cancel_waiter(st->id)) {
      st->settled = true;
      st->done(false);
    }
  });
}

std::unique_ptr<EndpointAcquirer> make_acquirer(
    MechanismKind kind, BlockingAcquirer::Params params,
    QueueingAcquirer::Params queueing_params) {
  switch (kind) {
    case MechanismKind::kBlocking:
      return std::make_unique<BlockingAcquirer>(params);
    case MechanismKind::kNonBlocking:
      return std::make_unique<NonBlockingAcquirer>();
    case MechanismKind::kQueueing:
      return std::make_unique<QueueingAcquirer>(queueing_params);
  }
  throw std::invalid_argument("make_acquirer: unknown kind");
}

}  // namespace ntier::lb
