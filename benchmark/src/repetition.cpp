#include "repetition.h"

#include <bit>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/det_hash.h"
#include "common/error.h"
#include "persist/checkpoint.h"

namespace simdc::bench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsBetween(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Chained HashCombine over every value fed in, in order.
class Hasher {
 public:
  void Add(std::uint64_t value) { hash_ = HashCombine(hash_, value); }
  void AddDouble(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void AddFloat(float value) { Add(std::bit_cast<std::uint32_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0x53494d4443424e48ULL;
};

void HashRun(Hasher& h, const core::FlRunResult& run) {
  h.Add(run.rounds.size());
  for (const core::RoundMetrics& m : run.rounds) {
    h.Add(m.round);
    h.Add(static_cast<std::uint64_t>(m.time));
    h.AddDouble(m.test_accuracy);
    h.AddDouble(m.test_logloss);
    h.AddDouble(m.train_accuracy);
    h.AddDouble(m.train_logloss);
    h.Add(m.clients);
    h.Add(m.samples);
  }
  h.Add(run.messages_emitted);
  h.Add(run.messages_dropped);
  h.Add(run.skipped_unavailable);
  h.Add(run.rounds_degraded);
  h.Add(run.rounds_extended);
  h.Add(run.rounds_aborted);
  h.Add(run.model_dim);
  h.Add(run.final_weights.size());
  for (const float w : run.final_weights) h.AddFloat(w);
  h.AddFloat(run.final_bias);
}

void HashSla(Hasher& h, const core::TaskSlaReport& sla) {
  h.Add(sla.task.value());
  h.Add(sla.rounds);
  for (const double v :
       {sla.round_latency_mean_s, sla.round_latency_max_s,
        sla.round_latency_p50_s, sla.round_latency_p95_s,
        sla.round_latency_p99_s, sla.queue_wait_s, sla.makespan_s}) {
    h.AddDouble(v);
  }
  for (const std::uint64_t v :
       {sla.retries, sla.deadline_drops, sla.churn_losses,
        std::uint64_t{sla.rounds_degraded}, std::uint64_t{sla.rounds_extended},
        std::uint64_t{sla.rounds_aborted},
        std::uint64_t{sla.skipped_unavailable},
        std::uint64_t{sla.messages_emitted},
        std::uint64_t{sla.messages_dropped}}) {
    h.Add(v);
  }
  h.Add(static_cast<std::uint64_t>(sla.submitted));
  h.Add(static_cast<std::uint64_t>(sla.admitted));
  h.Add(static_cast<std::uint64_t>(sla.completed));
}

void HashDispatch(Hasher& h, const flow::DispatchStats& stats) {
  for (const std::size_t v :
       {stats.received, stats.sent, stats.dropped, stats.retries,
        stats.retry_successes, stats.deadline_drops, stats.churn_losses,
        stats.batches_truncated, stats.batches.size()}) {
    h.Add(v);
  }
  for (const auto& [time, count] : stats.batches) {
    h.Add(static_cast<std::uint64_t>(time));
    h.Add(count);
  }
  for (const std::uint64_t key : stats.batch_keys) h.Add(key);
}

void HashService(Hasher& h, const cloud::AggregationService& service) {
  for (const std::size_t v :
       {service.rounds_completed(), service.messages_received(),
        service.decode_failures(), service.stale_rejections(),
        service.store_errors(), service.deadline_commits(),
        service.round_extensions(), service.aborted_rounds()}) {
    h.Add(v);
  }
}

/// Tenant rows in task-id order, admission timeline included.
std::uint64_t TenantDigest(const std::vector<core::TenantResult>& results) {
  Hasher h;
  h.Add(results.size());
  for (const core::TenantResult& row : results) {
    h.Add(row.id.value());
    h.Add(row.completed ? 1 : 0);
    h.Add(row.rejected ? 1 : 0);
    HashRun(h, row.result);
    HashSla(h, row.sla);
  }
  return h.value();
}

template <typename... Parts>
std::string Concat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

std::size_t Clients(const core::FlRunResult& run) {
  std::size_t clients = 0;
  for (const core::RoundMetrics& m : run.rounds) clients += m.clients;
  return clients;
}

/// The engine's accounting identities for one finished task.
void CheckTask(const core::TaskRuntime& runtime, const core::FlRunResult& run,
               const flow::DispatchStats& stats, std::size_t rounds,
               std::vector<std::string>& failures) {
  const std::string who = runtime.config().task.ToString();
  if (run.rounds.size() != rounds) {
    failures.push_back(Concat(who, ": ", run.rounds.size(), " of ", rounds,
                              " rounds completed"));
  }
  if (stats.received != run.messages_emitted) {
    failures.push_back(Concat(who, ": emitted ", run.messages_emitted,
                              " != flow-plane received ", stats.received));
  }
  if (stats.sent + stats.dropped != run.messages_emitted) {
    failures.push_back(Concat(who, ": emitted ", run.messages_emitted,
                              " != delivered ", stats.sent, " + dropped ",
                              stats.dropped));
  }
  const cloud::AggregationService& service = runtime.aggregation();
  if (service.messages_received() > stats.sent) {
    failures.push_back(Concat(who, ": cloud received ",
                              service.messages_received(), " > delivered ",
                              stats.sent));
  }
  // Every received update is aggregated or booked as a failure; an aborted
  // round discards its partial updates, so then the books may fall short.
  const std::size_t booked = Clients(run) + service.decode_failures() +
                             service.stale_rejections() +
                             service.store_errors();
  const bool balanced = service.aborted_rounds() == 0
                            ? booked == service.messages_received()
                            : booked <= service.messages_received();
  if (!balanced) {
    failures.push_back(Concat(who, ": received ", service.messages_received(),
                              " but aggregated + failed = ", booked));
  }
}

/// The counters a task's public results carry (solo or tenant alike).
void AddResult(Counters& c, const core::FlRunResult& run,
               const core::TaskSlaReport& sla, double logical_fraction) {
  c.sent += static_cast<double>(run.messages_emitted - run.messages_dropped);
  c.dropped += static_cast<double>(run.messages_dropped);
  c.retries += static_cast<double>(sla.retries);
  c.deadline_drops += static_cast<double>(sla.deadline_drops);
  c.churn_losses += static_cast<double>(sla.churn_losses);
  c.rounds_degraded += static_cast<double>(run.rounds_degraded);
  c.rounds_aborted += static_cast<double>(run.rounds_aborted);
  c.skipped_unavailable += static_cast<double>(run.skipped_unavailable);
  c.participants += static_cast<double>(run.messages_emitted);
  c.logical_participants +=
      static_cast<double>(run.messages_emitted) * logical_fraction;
}

void AddRuntime(Counters::Runtime& c, const core::TaskRuntime& runtime,
                const flow::DispatchStats& stats) {
  const cloud::AggregationService& service = runtime.aggregation();
  c.updates_received += static_cast<double>(service.messages_received());
  c.decode_failures += static_cast<double>(service.decode_failures());
  c.stale_rejections += static_cast<double>(service.stale_rejections());
  c.store_errors += static_cast<double>(service.store_errors());
  const cloud::BlobStore& store = runtime.storage();
  c.bytes_written += static_cast<double>(store.bytes_written());
  c.arena_created += static_cast<double>(store.arena_blocks_created());
  c.arena_recycled += static_cast<double>(store.arena_blocks_recycled());
  c.retry_successes += static_cast<double>(stats.retry_successes);
  if (const persist::DurableStore* durable = runtime.durable_store()) {
    c.log_commits += static_cast<double>(durable->log_commits());
    c.checkpoints += static_cast<double>(durable->checkpoints_written());
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        persist::BlobLogPath(durable->config().dir), ec);
    if (!ec) c.log_bytes += static_cast<double>(size);
  }
}

RepResult RunSolo(const data::FederatedDataset& dataset,
                  core::FlExperimentConfig config, ThreadPool& pool, Mode mode,
                  const std::string& trace_path) {
  RepResult rep;
  RoundClock clock;
  const std::size_t rounds = config.rounds;
  if (mode != Mode::kPlain) clock.Attach(config);
  const std::string durable_dir = config.durability.dir;
  {
    sim::EventLoop loop;
    core::FlEngine engine(loop, dataset, std::move(config), &pool);
    const std::int64_t t1 = NowNs();
    core::TaskRuntime& runtime = engine.runtime();
    core::FlRunResult run;
    std::int64_t t2 = 0;
    if (mode == Mode::kTraced) {
      Tracer tracer(static_cast<std::int32_t>(runtime.config().task.value()));
      const flow::Dispatcher* dispatcher =
          runtime.sharded()
              ? nullptr
              : runtime.device_flow().FindDispatcher(runtime.config().task);
      tracer.set_markers([&] {
        Markers m;
        m.opened = clock.opened();
        m.turns = m.opened + (runtime.done() ? 1 : 0);
        if (dispatcher != nullptr) {
          const flow::DispatchStats& s = dispatcher->stats();
          m.flow = s.received + s.sent + s.dropped + s.retries;
        }
        m.deliveries = runtime.aggregation().messages_received();
        return m;
      });
      tracer.Start();
      tracer.Call(Layer::kRoundTurn, [&] { runtime.Begin(); });
      if (runtime.sharded()) {
        TracedLockstep(loop, runtime.ShardLoops(), runtime.pool(),
                       runtime.feedback_guard(), *runtime.merger(), tracer);
      } else {
        tracer.CloudAll(loop);
      }
      tracer.Call(Layer::kFinalize, [&] { run = runtime.Finalize(); });
      tracer.Stop();
      t2 = NowNs();
      rep.trace = tracer.totals();
      if (!trace_path.empty()) (void)tracer.WriteChromeTrace(trace_path);
    } else {
      run = engine.Run();
      t2 = NowNs();
    }
    rep.run_s = SecondsBetween(t1, t2);

    const flow::DispatchStats stats = engine.dispatch_stats();
    const core::TaskSlaReport sla = engine.Sla();
    Hasher h;
    HashRun(h, run);
    HashSla(h, sla);
    HashDispatch(h, stats);
    HashService(h, engine.aggregation());
    Outcome& out = rep.outcome;
    out.digest = h.value();
    out.rounds = run.rounds.size();
    out.updates = Clients(run);
    CheckTask(runtime, run, stats, rounds, out.failures);
    AddResult(out.counters, run, sla, runtime.config().logical_fraction);
    AddRuntime(out.counters.runtime, runtime, stats);
    out.counters.cloud_events = static_cast<double>(loop.processed());
    out.weights = run.final_weights;
    out.bias = run.final_bias;
  }
  if (!durable_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(durable_dir, ec);
  }
  if (mode != Mode::kPlain) rep.round_ms = clock.IntervalsMs();
  return rep;
}

/// Per-tenant checks on MultiTenantEngine's public results: every tenant
/// completed all its rounds, its books balance as far as the results show
/// them, and its admission timeline runs forward. Adds each tenant's
/// counters to `c`.
void CheckTenants(const Experiment& e,
                  const std::vector<core::TenantResult>& results, Counters& c,
                  std::vector<std::string>& failures) {
  if (results.size() != e.tenants.size()) {
    failures.push_back(Concat(results.size(), " tenant results for ",
                              e.tenants.size(), " tenants"));
    return;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::TenantResult& row = results[i];
    const core::FlRunResult& run = row.result;
    const std::string who = row.id.ToString();
    if (row.id != e.tenants[i].spec.id) {
      failures.push_back(Concat(who, ": result out of task-id order"));
    }
    if (!row.completed || row.rejected) {
      failures.push_back(Concat(who, ": not completed (", row.detail, ")"));
      continue;
    }
    if (run.rounds.size() != e.RoundsConfigured()) {
      failures.push_back(Concat(who, ": ", run.rounds.size(), " of ",
                                e.RoundsConfigured(), " rounds completed"));
    }
    if (run.messages_dropped > run.messages_emitted ||
        Clients(run) > run.messages_emitted - run.messages_dropped) {
      failures.push_back(Concat(who, ": emitted ", run.messages_emitted,
                                ", dropped ", run.messages_dropped,
                                ", aggregated ", Clients(run)));
    }
    if (row.sla.submitted > row.sla.admitted ||
        row.sla.admitted > row.sla.completed) {
      failures.push_back(Concat(who, ": admission timeline ",
                                row.sla.submitted, " -> ", row.sla.admitted,
                                " -> ", row.sla.completed));
    }
    AddResult(c, run, row.sla, e.tenants[i].fl.logical_fraction);
  }
}

RepResult RunTenants(const Experiment& e, ThreadPool& pool, Mode mode) {
  SIMDC_CHECK(mode != Mode::kTraced, "MultiTenantEngine is never traced");
  RepResult rep;
  RoundClock clock;
  std::vector<core::TenantTask> tasks = e.tenants;
  if (mode == Mode::kStamped) {
    for (core::TenantTask& task : tasks) clock.Attach(task.fl);
  }
  sim::EventLoop loop;
  sched::ResourceManager resources(e.logical_bundles, e.phones);
  core::MultiTenantEngine engine(loop, resources, &pool);
  Outcome& out = rep.outcome;
  for (core::TenantTask& task : tasks) {
    if (const Status submitted = engine.Submit(std::move(task));
        !submitted.ok()) {
      out.failures.push_back("submit failed: " + submitted.ToString());
    }
  }
  const std::int64_t t1 = NowNs();
  const std::vector<core::TenantResult> results = engine.Run(e.policy);
  rep.run_s = SecondsBetween(t1, NowNs());

  out.digest = TenantDigest(results);
  for (const core::TenantResult& row : results) {
    out.rounds += row.result.rounds.size();
    out.updates += Clients(row.result);
  }
  if (!results.empty()) {
    out.weights = results.front().result.final_weights;
    out.bias = results.front().result.final_bias;
  }
  CheckTenants(e, results, out.counters, out.failures);
  out.counters.admission_passes =
      static_cast<double>(engine.admission_passes());
  out.counters.peak_active_tenants =
      static_cast<double>(engine.peak_active_tenants());
  out.counters.cloud_events = static_cast<double>(loop.processed());
  if (mode == Mode::kStamped) rep.round_ms = clock.IntervalsMs();
  return rep;
}

}  // namespace

void RoundClock::Attach(core::FlExperimentConfig& config) {
  Task& task = tasks_.emplace_back();
  task.rounds = config.rounds;
  task.starts = std::make_unique<std::atomic<std::int64_t>[]>(task.rounds);
  std::atomic<std::int64_t>* starts = task.starts.get();
  const std::size_t rounds = task.rounds;
  std::atomic<std::uint64_t>* opened = &opened_;
  config.delay_fn = [starts, rounds, opened](const data::DeviceData& device,
                                            std::size_t round, Rng&) {
    if (round < rounds &&
        starts[round].load(std::memory_order_relaxed) == 0) {
      std::int64_t expected = 0;
      if (starts[round].compare_exchange_strong(expected, NowNs())) {
        opened->fetch_add(1, std::memory_order_relaxed);
      }
    }
    return Seconds(device.response_delay_s);
  };
}

std::vector<double> RoundClock::IntervalsMs() const {
  std::vector<double> out;
  for (const Task& task : tasks_) {
    for (std::size_t r = 2; r < task.rounds; ++r) {
      const std::int64_t prev = task.starts[r - 1].load();
      const std::int64_t next = task.starts[r].load();
      if (prev != 0 && next != 0) {
        out.push_back(static_cast<double>(next - prev) / 1e6);
      }
    }
  }
  return out;
}

RepResult RunRep(const Experiment& experiment, ThreadPool& pool, Mode mode) {
  return experiment.multi_tenant ? RunTenants(experiment, pool, mode)
                                 : RunFirstTask(experiment, pool, mode);
}

RepResult RunFirstTask(const Experiment& experiment, ThreadPool& pool,
                       Mode mode, const std::string& trace_path) {
  return RunSolo(experiment.FirstDataset(), experiment.FirstConfig(), pool,
                 mode, trace_path);
}

double ConstructSeconds(const Experiment& e, ThreadPool& pool) {
  sim::EventLoop loop;
  const std::int64_t t0 = NowNs();
  if (e.multi_tenant) {
    sched::ResourceManager resources(e.logical_bundles, e.phones);
    core::MultiTenantEngine engine(loop, resources, &pool);
    for (const core::TenantTask& task : e.tenants) (void)engine.Submit(task);
    return SecondsBetween(t0, NowNs());
  }
  core::FlEngine engine(loop, e.datasets.front(), e.solo, &pool);
  return SecondsBetween(t0, NowNs());
}

}  // namespace simdc::bench
