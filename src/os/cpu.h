#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::os {

/// Processor-sharing CPU with `cores` cores and a transient *capacity
/// factor* in [0, 1].
///
/// Each submitted job carries a service demand (CPU time at full speed on
/// one core). All runnable jobs progress at
///     rate = factor * min(1, cores / n_jobs)
/// per job — the classic egalitarian PS model, capped so a single job never
/// exceeds one core. A millibottleneck *is* a transient drop of the factor
/// towards 0 (e.g. pdflush saturating iowait and starving the foreground).
///
/// Implementation: virtual-time PS. V(t) integrates the per-job rate; job j
/// finishes when V reaches V(start_j) + demand_j, so arrivals/departures are
/// O(log n) instead of rescanning every job. Callbacks live in a reusable
/// slot table, and one standing completion event is re-keyed in place
/// (Simulation::reschedule) on every arrival, departure and speed change.
class CpuResource {
 public:
  using JobId = std::uint64_t;
  static constexpr JobId kInvalidJob = 0;

  CpuResource(sim::Simulation& simu, int cores, std::string name = "cpu");

  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  /// Submit a job with the given full-speed demand. `on_complete` fires when
  /// the job has accumulated that much service.
  JobId submit(sim::SimTime demand, sim::Callback on_complete);

  /// Abandon a job before completion. Returns false if already finished.
  bool cancel(JobId id);

  /// Change the effective speed (0 = fully stalled). Takes effect
  /// immediately for all in-flight jobs.
  void set_capacity_factor(double f);
  double capacity_factor() const { return factor_; }

  int cores() const { return cores_; }
  std::size_t jobs_running() const { return live_jobs_; }
  const std::string& name() const { return name_; }

  /// Cumulative foreground work completed, in core-seconds.
  double work_done_core_seconds() const;
  /// Cumulative time integral of (1 - factor), in seconds — the "stolen"
  /// capacity, used to render iowait/CPU-saturation figures.
  double stall_seconds() const;

  /// Foreground utilisation over [since, now] as a fraction of total
  /// capacity; pair with stall to plot paper-style CPU graphs.
  struct UtilisationProbe {
    double foreground = 0;  // work done / (cores * dt)
    double stall = 0;       // mean (1 - factor) over dt
    double combined() const { return foreground + stall > 1.0 ? 1.0 : foreground + stall; }
  };
  /// Returns utilisation since the previous probe call (or since t=0).
  UtilisationProbe probe_utilisation();

 private:
  /// Completion order is (v_end, submission order); `slot`/`gen` name the
  /// job, and the entry is stale once that slot's generation moved on.
  struct HeapJob {
    double v_end;  // virtual time at which the job completes
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const HeapJob& o) const {
      if (v_end != o.v_end) return v_end > o.v_end;
      return seq > o.seq;
    }
  };

  /// A job's callback. `gen` grows when the job finishes or is cancelled,
  /// so its JobId and heap entry stop resolving and the slot can be reused.
  struct Job {
    sim::Callback on_complete;
    std::uint32_t gen = 1;
  };

  static JobId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<JobId>(gen) << 32) | slot;
  }
  bool live(std::uint32_t slot, std::uint32_t gen) const {
    return jobs_[slot].gen == gen;
  }
  /// Move the job's callback out and return its slot to the free list.
  sim::Callback release_job(std::uint32_t slot);

  double rate_per_job() const;
  void advance();      // integrate V up to sim_.now()
  void reschedule();   // re-key (or arm, or disarm) the completion event
  void on_completion_event();
  void pop_stale_top();

  sim::Simulation& sim_;
  int cores_;
  std::string name_;
  double factor_ = 1.0;

  std::priority_queue<HeapJob, std::vector<HeapJob>, std::greater<>> heap_;
  std::vector<Job> jobs_;
  std::vector<std::uint32_t> free_jobs_;
  std::vector<sim::Callback> done_;  // completions of one event, reused
  std::size_t live_jobs_ = 0;
  std::uint64_t next_seq_ = 0;

  double v_ = 0;                 // virtual time, in ns of per-job service
  sim::SimTime last_update_;
  double work_done_ns_ = 0;      // foreground core-ns completed
  double stall_ns_ = 0;          // integral of (1-factor) dt
  sim::EventId completion_event_ = sim::kInvalidEventId;

  // probe state
  double probe_last_work_ns_ = 0;
  double probe_last_stall_ns_ = 0;
  sim::SimTime probe_last_t_;
};

}  // namespace ntier::os
