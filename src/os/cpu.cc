#include "os/cpu.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ntier::os {

namespace {
// Virtual-time comparison tolerance (ns of service). Scheduled completion
// delays are rounded *up* to integer ns, so V slightly overshoots v_end;
// accumulated double error stays far below this at any realistic run length.
constexpr double kVEps = 0.5;
}  // namespace

CpuResource::CpuResource(sim::Simulation& simu, int cores, std::string name)
    : sim_(simu), cores_(cores), name_(std::move(name)) {
  if (cores <= 0) throw std::invalid_argument("CpuResource: cores must be positive");
  last_update_ = sim_.now();
  probe_last_t_ = sim_.now();
}

double CpuResource::rate_per_job() const {
  if (live_jobs_ == 0) return 0.0;
  const double share =
      live_jobs_ <= static_cast<std::size_t>(cores_)
          ? 1.0
          : static_cast<double>(cores_) / static_cast<double>(live_jobs_);
  return factor_ * share;
}

void CpuResource::advance() {
  const sim::SimTime now = sim_.now();
  const double dt = static_cast<double>((now - last_update_).ns());
  if (dt <= 0) {
    last_update_ = now;
    return;
  }
  const double rate = rate_per_job();
  v_ += dt * rate;
  work_done_ns_ += dt * rate * static_cast<double>(live_jobs_);
  stall_ns_ += dt * (1.0 - factor_);
  last_update_ = now;
}

sim::Callback CpuResource::release_job(std::uint32_t slot) {
  Job& job = jobs_[slot];
  sim::Callback fn = std::move(job.on_complete);
  ++job.gen;
  free_jobs_.push_back(slot);
  --live_jobs_;
  return fn;
}

void CpuResource::pop_stale_top() {
  while (!heap_.empty() && !live(heap_.top().slot, heap_.top().gen))
    heap_.pop();
}

void CpuResource::reschedule() {
  pop_stale_top();
  const double rate = rate_per_job();
  if (heap_.empty() || rate <= 0.0) {
    // Idle, or fully stalled (re-armed when the factor recovers).
    if (completion_event_ != sim::kInvalidEventId) {
      sim_.cancel(completion_event_);
      completion_event_ = sim::kInvalidEventId;
    }
    return;
  }
  const double remaining = heap_.top().v_end - v_;
  const double delay_ns = remaining <= 0 ? 0 : std::ceil(remaining / rate);
  const sim::SimTime at =
      sim_.now() + sim::SimTime::nanos(static_cast<std::int64_t>(delay_ns));
  if (completion_event_ != sim::kInvalidEventId) {
    [[maybe_unused]] const bool moved = sim_.reschedule(completion_event_, at);
    assert(moved);
    return;
  }
  completion_event_ = sim_.at(at, [this] { on_completion_event(); });
}

void CpuResource::on_completion_event() {
  completion_event_ = sim::kInvalidEventId;
  advance();
  // Borrow the reused vector so a callback that somehow re-enters cannot
  // clobber the batch being run.
  std::vector<sim::Callback> done;
  done.swap(done_);
  pop_stale_top();
  while (!heap_.empty() && heap_.top().v_end <= v_ + kVEps) {
    const std::uint32_t slot = heap_.top().slot;
    heap_.pop();
    done.push_back(release_job(slot));
    pop_stale_top();
  }
  reschedule();
  for (auto& cb : done) cb();
  done.clear();
  done_.swap(done);
}

CpuResource::JobId CpuResource::submit(sim::SimTime demand,
                                       sim::Callback on_complete) {
  if (demand.ns() < 0) throw std::invalid_argument("CpuResource: negative demand");
  advance();
  std::uint32_t slot = 0;
  if (free_jobs_.empty()) {
    slot = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  } else {
    slot = free_jobs_.back();
    free_jobs_.pop_back();
  }
  Job& job = jobs_[slot];
  job.on_complete = std::move(on_complete);
  heap_.push(HeapJob{v_ + static_cast<double>(demand.ns()), ++next_seq_, slot,
                     job.gen});
  ++live_jobs_;
  reschedule();
  return make_id(slot, job.gen);
}

bool CpuResource::cancel(JobId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= jobs_.size() || !live(slot, gen)) return false;
  advance();
  release_job(slot);  // the heap entry goes stale and is skipped lazily
  reschedule();
  return true;
}

void CpuResource::set_capacity_factor(double f) {
  if (f < 0.0 || f > 1.0)
    throw std::invalid_argument("CpuResource: factor must be in [0,1]");
  advance();
  factor_ = f;
  reschedule();
}

double CpuResource::work_done_core_seconds() const { return work_done_ns_ * 1e-9; }
double CpuResource::stall_seconds() const { return stall_ns_ * 1e-9; }

CpuResource::UtilisationProbe CpuResource::probe_utilisation() {
  advance();
  const sim::SimTime now = sim_.now();
  const double dt = static_cast<double>((now - probe_last_t_).ns());
  UtilisationProbe p;
  if (dt > 0) {
    p.foreground = (work_done_ns_ - probe_last_work_ns_) /
                   (dt * static_cast<double>(cores_));
    p.stall = (stall_ns_ - probe_last_stall_ns_) / dt;
  }
  probe_last_work_ns_ = work_done_ns_;
  probe_last_stall_ns_ = stall_ns_;
  probe_last_t_ = now;
  return p;
}

}  // namespace ntier::os
