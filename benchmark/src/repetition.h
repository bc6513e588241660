// One repetition of a workload's experiment: build the engine, run it to
// completion, digest and check the results.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "experiment.h"
#include "trace.h"

namespace simdc::bench {

/// Host-time round starts, stamped from outside the engine through
/// FlExperimentConfig::delay_fn. The hook returns exactly the engine's
/// default delay, so stamped runs are bit-identical to unhooked ones; it
/// keeps the first host timestamp per (task, round) with one CAS.
class RoundClock {
 public:
  /// Installs the stamping hook on `config` (one slot per configured round).
  void Attach(core::FlExperimentConfig& config);
  /// Host ms between consecutive round starts of each task, skipping each
  /// task's first interval (warm-up).
  std::vector<double> IntervalsMs() const;
  /// Rounds stamped so far, over all tasks.
  std::uint64_t opened() const {
    return opened_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::unique_ptr<std::atomic<std::int64_t>[]> starts;
    std::size_t rounds = 0;
  };
  std::deque<Task> tasks_;  // stable addresses: hooks point into it
  std::atomic<std::uint64_t> opened_{0};
};

/// Layer counters of one run, read from public accessors.
struct Counters {
  // From the engines' public results (FlRunResult, TaskSlaReport, the
  // engine and its cloud loop), so every workload has them.
  double sent = 0, dropped = 0, retries = 0, deadline_drops = 0,
         churn_losses = 0;
  double rounds_degraded = 0, rounds_aborted = 0, skipped_unavailable = 0;
  double admission_passes = 0, peak_active_tenants = 0;
  double cloud_events = 0;
  double participants = 0, logical_participants = 0;
  /// From TaskRuntime accessors (store, aggregation service, dispatcher,
  /// durable store), which MultiTenantEngine does not expose; zero in a
  /// MultiTenantEngine run.
  struct Runtime {
    double updates_received = 0, decode_failures = 0, stale_rejections = 0,
           store_errors = 0, bytes_written = 0, arena_created = 0,
           arena_recycled = 0, retry_successes = 0;
    double log_bytes = 0, log_commits = 0, checkpoints = 0;
  } runtime;
};

/// What one run produced, reduced to what the benchmark checks and reports.
struct Outcome {
  /// 64-bit digest of every result bit (see repetition.cpp).
  std::uint64_t digest = 0;
  std::size_t rounds = 0;   // rounds recorded, all tasks
  std::size_t updates = 0;  // Σ RoundMetrics::clients, all tasks
  /// Output checks that failed (empty = correct).
  std::vector<std::string> failures;
  Counters counters;
  /// Final model of the first task (the probes' model).
  std::vector<float> weights;
  float bias = 0.0f;
};

enum class Mode {
  kPlain,    // engine Run() with no hook: the reference digest
  kStamped,  // engine Run() with the round-start hook: the measured run
  kTraced,   // bench-side traced drive loop with the hook (RunFirstTask only)
};

struct RepResult {
  Outcome outcome;
  /// Host seconds of Run() (or its traced copy), construction excluded.
  double run_s = 0;
  std::vector<double> round_ms;
  std::optional<TraceTotals> trace;
};

/// Runs the whole experiment once through FlEngine::Run() or
/// MultiTenantEngine::Run(); `mode` is kPlain or kStamped.
RepResult RunRep(const Experiment& experiment, ThreadPool& pool, Mode mode);

/// Runs the experiment's first task alone through FlEngine — for
/// single-task workloads the same run as RunRep. kTraced replaces Run()
/// with the traced drive loop and writes its spans to `trace_path` when it
/// is non-empty. This is how multi_tenant gets spans: MultiTenantEngine
/// exposes no per-step surface, so its traced runs trace one tenant.
RepResult RunFirstTask(const Experiment& experiment, ThreadPool& pool,
                       Mode mode, const std::string& trace_path = "");

/// Host seconds to build the engine (FlEngine construction, or
/// MultiTenantEngine construction plus every Submit) without running it.
double ConstructSeconds(const Experiment& experiment, ThreadPool& pool);

}  // namespace simdc::bench
