#pragma once

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/experiment.h"

namespace ntier::experiment {

/// Every scalar run metric, declared once as X(type, name), in RunSummary
/// JSON order. The RunSummary fields, RunMetric, RunSummary::value, the
/// summary JSON, the sweep statistics, JSON and CSVs and the bench JSON rows
/// are all generated from this list, so a new metric is one line here plus
/// the code in summarize() that fills it. Comments inside the list are block
/// comments: a line comment would swallow the line continuation.
#define NTIER_RUN_METRICS(X)                                                   \
  X(double, offered_rps)                                                       \
  X(double, duration_s)                                                        \
  X(std::int64_t, completed)                                                   \
  X(std::uint64_t, dropped)                                                    \
  X(std::uint64_t, balancer_errors)                                            \
  X(std::uint64_t, connection_drops)                                           \
  /* -- trace replay (all zero for closed-loop runs) */                        \
  /* True when an open-loop TraceReplayer drove the run instead of the */      \
  /* closed-loop population. */                                                \
  X(bool, open_loop)                                                           \
  /* Arrivals in the replayed trace (issued as far as the horizon allows). */  \
  X(std::uint64_t, trace_arrivals)                                             \
  /* Replayed requests the client abandoned (replay_client_timeout). */        \
  X(std::uint64_t, replay_abandoned)                                           \
  /* -- overload control: goodput + shed accounting */                         \
  /* Completions that met their deadline (all completions when no */           \
  /* deadlines were stamped), per second of measured (post-warmup) time. */    \
  X(double, goodput_rps)                                                       \
  X(std::int64_t, completed_within_deadline)                                   \
  X(std::int64_t, missed_deadline)                                             \
  X(std::uint64_t, admission_sheds)                                            \
  X(std::uint64_t, brownout_sheds)                                             \
  X(std::uint64_t, deadline_sheds)                                             \
  X(std::uint64_t, sojourn_sheds)                                              \
  /* Backend service demand *not* executed because expired work was shed */    \
  /* before reaching (or finishing on) the CPU. */                             \
  X(double, wasted_work_avoided_ms)                                            \
  /* Client-side re-attempts after a retriable admission/brownout 503. */      \
  X(std::uint64_t, shed_retries)                                               \
  /* -- front-end retries: the storm signal */                                 \
  /* Requests dispatched to a worker on their first attempt, retry */          \
  /* attempts re-dispatched after a failure, and their ratio -- the signal */  \
  /* the recovery orchestrator keys retry suppression on. */                   \
  X(std::uint64_t, first_attempts)                                             \
  X(std::uint64_t, retries)                                                    \
  X(double, retry_ratio)                                                       \
  X(std::uint64_t, retry_successes)                                            \
  /* In-flight attempts abandoned after retry.attempt_timeout (the backend */  \
  /* kept burning the demand -- the wasted-work side of a retry storm). */     \
  X(std::uint64_t, attempts_abandoned)                                         \
  /* -- recovery orchestration (all zero when --recovery is off) */            \
  X(std::uint64_t, recovery_episodes)                                          \
  X(std::uint64_t, recovery_degraded_ticks)                                    \
  /* Per-reason intervention counters (jobs-invariant). */                     \
  X(std::uint64_t, recovery_retry_suppressions)                                \
  X(std::uint64_t, recovery_hard_sheds)                                        \
  X(std::uint64_t, recovery_refill_gates)                                      \
  X(std::uint64_t, recovery_breaker_resets)                                    \
  /* Retry attempts dropped while suppression was on, and arrivals */          \
  /* answered with a fast recovery 503 while hard shedding was on. */          \
  X(std::uint64_t, retries_suppressed)                                         \
  X(std::uint64_t, recovery_sheds)                                             \
  /* Cache refills that went through the jittered admission gate. */           \
  X(std::uint64_t, cache_gated_fills)                                          \
  /* -- gray-fault ground truth (zero unless a gray fault was scheduled) */    \
  /* Tomcat requests served with gray-inflated demand, and KV ops executed */  \
  /* by a slow-but-alive replica. */                                           \
  X(std::uint64_t, gray_inflated_ops)                                          \
  X(std::uint64_t, kv_slow_ops)                                                \
  /* -- Table I */                                                             \
  X(double, mean_rt_ms)                                                        \
  X(double, p50_ms)                                                            \
  X(double, p99_ms)                                                            \
  X(double, p999_ms)                                                           \
  X(double, vlrt_fraction)                                                     \
  X(double, normal_fraction)                                                   \
  /* -- tier queue peaks (zero unless the run was traced) */                   \
  X(double, apache_queue_peak)                                                 \
  X(double, tomcat_queue_peak)                                                 \
  X(double, mysql_queue_peak)                                                  \
  X(double, kv_queue_peak)                                                     \
  /* -- KV data tier (all zero when the run used the MySQL tier) */            \
  /* Per-reason KV error counters: quorum not reachable, hinted handoff */     \
  /* overflow/loss, writes shed in a migration handover window. */             \
  X(std::uint64_t, kv_quorum_failed)                                           \
  X(std::uint64_t, kv_handoff_dropped)                                         \
  X(std::uint64_t, kv_migration_shed)                                          \
  X(std::uint64_t, kv_hints_replayed)                                          \
  X(std::uint64_t, kv_read_repairs)                                            \
  /* Quorum-op time accumulated while the op's shard was below full */         \
  /* replication (degraded mode), and the mean quorum wait overall. */         \
  X(double, kv_degraded_ms)                                                    \
  X(double, kv_mean_quorum_wait_ms)                                            \
  /* -- cache tier (all zero when the run had no cache tier) */                \
  X(std::uint64_t, cache_hits)                                                 \
  X(std::uint64_t, cache_misses)                                               \
  /* Invalidations the write path sent (delivered + dropped + pending). */     \
  X(std::uint64_t, cache_invalidations)                                        \
  /* Misses that joined an in-flight fill (single-flight coalescing). */       \
  X(std::uint64_t, cache_coalesced_fills)                                      \
  /* Invalidations lost to a full queue (stale until TTL expiry). */           \
  X(std::uint64_t, cache_invalidations_dropped)                                \
  X(double, cache_hit_ratio)                                                   \
  /* -- online detection + tail sampling (all zero when --detect is off) */    \
  X(std::uint64_t, online_episodes)                                            \
  X(std::uint64_t, online_matched)                                             \
  X(std::uint64_t, online_truth_episodes)                                      \
  X(std::uint64_t, online_false_positives)                                     \
  X(double, online_median_detection_ms)                                        \
  X(std::uint64_t, online_episode_vlrts)                                       \
  /* Tail-based sampling volume accounting (zero when tail mode is off). */    \
  X(std::uint64_t, trace_events_seen)                                          \
  X(std::uint64_t, trace_events_kept)                                          \
  X(double, trace_kept_fraction)                                               \
  /* -- streaming telemetry (zero when --telemetry is off) */                  \
  /* Response-time quantiles read back from the client.rt_ms DDSketch */       \
  /* (cross-checks the exact histogram within the sketch's error bound). */    \
  X(double, rt_sketch_p50_ms)                                                  \
  X(double, rt_sketch_p99_ms)                                                  \
  X(double, rt_sketch_p999_ms)

/// One enumerator per NTIER_RUN_METRICS entry, in table order.
enum class RunMetric {
#define NTIER_RUN_METRIC_ENUM(type, name) name,
  NTIER_RUN_METRICS(NTIER_RUN_METRIC_ENUM)
#undef NTIER_RUN_METRIC_ENUM
};

#define NTIER_RUN_METRIC_ENUMERATOR(type, name) RunMetric::name,
inline constexpr RunMetric kRunMetrics[] = {
    NTIER_RUN_METRICS(NTIER_RUN_METRIC_ENUMERATOR)};
#undef NTIER_RUN_METRIC_ENUMERATOR
inline constexpr std::size_t kNumRunMetrics = std::size(kRunMetrics);

/// The metric's key in every output (its RunSummary field name).
std::string_view run_metric_name(RunMetric m);

/// Flat, serialisable digest of one run — what a CI job or notebook wants
/// to archive per experiment without holding the Experiment alive.
struct RunSummary {
  std::string label;
  std::string policy;
  std::string mechanism;

#define NTIER_RUN_METRIC_FIELD(type, name) type name = 0;
  NTIER_RUN_METRICS(NTIER_RUN_METRIC_FIELD)
#undef NTIER_RUN_METRIC_FIELD

  /// Serialized client.rt_ms sketch — mergeable across sweep replicas and
  /// byte-deterministic (not part of to_json; sweeps merge it in run-index
  /// order). Empty when --telemetry is off.
  std::string rt_sketch;

  std::vector<double> apache_mean_cpu;
  std::vector<double> tomcat_mean_cpu;
  std::vector<double> mysql_mean_cpu;
  std::vector<double> kv_mean_cpu;
  std::vector<double> cache_mean_cpu;

  /// Metric `m` as a double (counters and flags converted).
  double value(RunMetric m) const;

  /// Serialise as a single JSON object (stable field order, no deps). Every
  /// line is prefixed by `indent` spaces and `end` follows the closing
  /// brace, so an enclosing array can write its elements in place.
  void to_json(std::ostream& os, int indent = 0,
               std::string_view end = "\n") const;
  std::string to_json_string() const;
};

/// Collect the digest from a finished run. Queue peaks and CPU means are
/// only available when the experiment ran with tracing enabled.
RunSummary summarize(Experiment& e);

}  // namespace ntier::experiment
