// simdc_bench — the repo benchmark program.
//
//   simdc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --work-dir <dir> [--trace-file <path>] [--pinned <file>]
//               [--commit <id>] [--smoke]
//
// One process runs one workload as a closed batch: it generates the
// experiment from the seed, runs it once unhooked (the reference digest),
// then repeats the experiment until --seconds have been measured, checking
// every repetition; set-up (generate + build the engine) is timed several
// times along the way.
// With --trace 0 the repetitions call only FlEngine::Run() /
// MultiTenantEngine::Run() and the end-to-end metrics are reported; with
// --trace 1 untraced and traced repetitions of the first task alternate
// (for multi_tenant, its first tenant run alone — MultiTenantEngine has no
// per-step surface to trace), the layer probes run, and the per-layer
// metrics are reported. The last stdout line is the result object; the
// line before it records the run and its environment.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/log.h"
#include "common/stats.h"
#include "experiment.h"
#include "probes.h"
#include "repetition.h"

namespace {

using simdc::bench::Counters;
using simdc::bench::Experiment;
using simdc::bench::Mode;
using simdc::bench::Probe;
using simdc::bench::RepResult;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string trace_file;
  std::string pinned;
  std::string commit = "unknown";
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// Set-up samples per untraced run, spread over the measurement window;
/// setup_s is their median. Set-up is single-threaded and, on a shared
/// host, runs up to ~40% slower for seconds at a time, so samples taken
/// back to back would all land in one such stretch.
constexpr std::size_t kSetups = 9;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "simdc_bench: %s\n"
               "usage: simdc_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-file <path>] "
               "[--pinned <file>] [--commit <id>] [--smoke]\n",
               problem);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options& o, std::string& error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      values[arg.substr(2)] = argv[++i];
    } else {
      error = "unexpected argument " + arg;
      return false;
    }
  }
  for (const auto& [key, value] : values) {
    char* end = nullptr;
    if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") error = "--trace takes 0 or 1";
    } else if (key == "work-dir") {
      o.work_dir = value;
    } else if (key == "trace-file") {
      o.trace_file = value;
    } else if (key == "pinned") {
      o.pinned = value;
    } else if (key == "commit") {
      o.commit = value;
    } else {
      error = "unknown option --" + key;
    }
    if (end != nullptr && *end != '\0') error = "bad number for --" + key;
  }
  if (error.empty() && !simdc::bench::IsWorkload(o.workload)) {
    error = "unknown workload '" + o.workload + "'";
  }
  if (error.empty() && !(o.seconds > 0)) error = "--seconds must be > 0";
  if (error.empty() && o.work_dir.empty()) error = "--work-dir is required";
  return error.empty();
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop trailing NULs
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

/// JSON-safe rendering of a string (the values here never need escapes
/// beyond quotes and backslashes).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

/// Shortest round-trip rendering: every digit as measured.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

/// Reads `<workload> <hex digest>` lines (`#` starts a comment line);
/// returns 0 when the workload is absent.
std::uint64_t PinnedDigest(const std::string& path,
                           const std::string& workload) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    if (fields >> name >> hex && name == workload) {
      return std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : simdc::Percentile(values, 50.0);
}

double PeakRssMiB() {
  rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Each repetition's rate and round percentiles, then the median over
/// repetitions: a stretch of host contention spoils a few repetitions, not
/// the reported value.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const std::vector<RepResult>& reps) {
  std::vector<double> rate, p50, p90;
  for (const RepResult& rep : reps) {
    if (rep.run_s > 0) {
      rate.push_back(static_cast<double>(rep.outcome.updates) / rep.run_s);
    }
    if (!rep.round_ms.empty()) {
      p50.push_back(simdc::Percentile(rep.round_ms, 50));
      p90.push_back(simdc::Percentile(rep.round_ms, 90));
    }
  }
  return {{"setup_s", Median(setup_s), "s"},
          {"updates_per_s", Median(rate), "1/s"},
          {"round_ms_p50", Median(p50), "ms"},
          {"round_ms_p90", Median(p90), "ms"},
          {"peak_rss_mb", PeakRssMiB(), "MiB"}};
}

std::vector<Metric> PerLayer(const Counters& c,
                             const std::vector<RepResult>& untraced,
                             const std::vector<RepResult>& traced,
                             const std::vector<Probe>& probes) {
  const Counters::Runtime& r = c.runtime;
  const double arena = r.arena_created + r.arena_recycled;
  std::vector<Metric> m = {
      {"cloud.updates_received", r.updates_received, "count"},
      {"cloud.decode_failures", r.decode_failures, "count"},
      {"cloud.stale_rejections", r.stale_rejections, "count"},
      {"cloud.store_errors", r.store_errors, "count"},
      {"cloud.bytes_written", r.bytes_written, "bytes"},
      {"cloud.arena_reuse_frac", arena > 0 ? r.arena_recycled / arena : 0.0,
       "ratio"},
      {"flow.sent", c.sent, "count"},
      {"flow.dropped", c.dropped, "count"},
      {"flow.retries", c.retries, "count"},
      {"flow.retry_successes", r.retry_successes, "count"},
      {"flow.deadline_drops", c.deadline_drops, "count"},
      {"flow.churn_losses", c.churn_losses, "count"},
      {"core.rounds_degraded", c.rounds_degraded, "count"},
      {"core.rounds_aborted", c.rounds_aborted, "count"},
      {"core.skipped_unavailable", c.skipped_unavailable, "count"},
      {"sched.admission_passes", c.admission_passes, "count"},
      {"sched.peak_active_tenants", c.peak_active_tenants, "count"},
      {"persist.log_bytes", r.log_bytes, "bytes"},
      {"sim.cloud_events", c.cloud_events, "count"},
  };

  // Spans: per-round host time of each layer, median over traced reps.
  auto per_round = [&](auto&& field) {
    std::vector<double> values;
    for (const RepResult& rep : traced) {
      const double rounds =
          std::max<double>(1.0, static_cast<double>(rep.outcome.rounds));
      values.push_back(field(*rep.trace) / rounds);
    }
    return Median(values);
  };
  using simdc::bench::Layer;
  using simdc::bench::TraceTotals;
  auto layer_ms = [&](Layer layer) {
    return per_round([layer](const TraceTotals& t) {
      return static_cast<double>(t.layer_ns[static_cast<std::size_t>(layer)]) /
             1e6;
    });
  };
  auto ratio = [&](auto&& field) {
    std::vector<double> values;
    for (const RepResult& rep : traced) values.push_back(field(*rep.trace));
    return Median(values);
  };
  std::vector<double> traced_s, untraced_s;
  for (const RepResult& rep : traced) traced_s.push_back(rep.run_s);
  for (const RepResult& rep : untraced) untraced_s.push_back(rep.run_s);
  const double untraced_median = Median(untraced_s);

  m.push_back({"core.round_turn_ms", layer_ms(Layer::kRoundTurn), "ms"});
  m.push_back({"sim.loop_ms", layer_ms(Layer::kLoop), "ms"});
  m.push_back({"flow.dispatch_ms", layer_ms(Layer::kDispatch), "ms"});
  m.push_back({"cloud.deliver_ms", layer_ms(Layer::kDeliver), "ms"});
  m.push_back({"flow.shard_idle_frac", ratio([](const TraceTotals& t) {
                 return t.shard_slot_ns > 0
                            ? 1.0 - static_cast<double>(t.shard_busy_ns) /
                                        static_cast<double>(t.shard_slot_ns)
                            : 0.0;
               }),
               "ratio"});
  m.push_back({"sim.barriers_per_round", per_round([](const TraceTotals& t) {
                 return static_cast<double>(t.barriers);
               }),
               "count"});
  m.push_back({"trace.unattributed_frac", ratio([](const TraceTotals& t) {
                 return t.wall_ns > 0
                            ? 1.0 - static_cast<double>(t.attributed_ns()) /
                                        static_cast<double>(t.wall_ns)
                            : 0.0;
               }),
               "ratio"});
  m.push_back({"trace.overhead_frac",
               untraced_median > 0 ? Median(traced_s) / untraced_median - 1.0
                                   : 0.0,
               "ratio"});
  for (const Probe& probe : probes) {
    m.push_back({probe.name, probe.value, probe.unit});
  }
  return m;
}

void PrintProbeModel(const std::vector<Probe>& probes,
                     const std::vector<Metric>& metrics,
                     std::size_t pool_width) {
  std::map<std::string, double> by_name;
  for (const Metric& metric : metrics) by_name[metric.name] = metric.value;
  std::fprintf(stderr, "\n  %-24s %12s %12s %12s   %-20s %10s\n", "probe",
               "per call", "calls/round", "model ms/rd", "explains span",
               "span ms/rd");
  for (const Probe& p : probes) {
    const double per_call_ms =
        std::string(p.unit) == "ms" ? p.value : p.value / 1e3;
    const double lanes = p.parallel ? static_cast<double>(pool_width) : 1.0;
    std::fprintf(stderr, "  %-24s %9.3f %-2s %12.1f %12.3f   %-20s %10.3f\n",
                 p.name.c_str(), p.value, p.unit, p.calls_per_round,
                 per_call_ms * p.calls_per_round / lanes, p.explains,
                 by_name[p.explains]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (std::string error; !ParseArgs(argc, argv, o, error)) {
    return Usage(error.c_str());
  }
  if (std::string(SIMDC_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "simdc_bench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 SIMDC_BENCH_BUILD_TYPE);
    return 2;
  }
  simdc::Logger::Instance().set_level(simdc::LogLevel::kError);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t width = std::min<std::size_t>(4, nproc);
  simdc::ThreadPool pool(width);
  const std::string durable_dir = o.work_dir + "/durable";
  const double seconds = o.smoke ? std::min(o.seconds, 0.2) : o.seconds;

  // Set-up: generate the inputs and build the engine. Untraced runs take
  // kSetups samples spread over the measurement window (which pauses for
  // them).
  auto set_up = [&](Experiment& out) {
    const auto start = std::chrono::steady_clock::now();
    out = simdc::bench::MakeExperiment(o.workload, o.seed, o.smoke, width,
                                       durable_dir);
    const double generate_s = SecondsSince(start);
    return generate_s + simdc::bench::ConstructSeconds(out, pool);
  };
  const std::size_t setups = o.trace ? 1 : o.smoke ? 2 : kSetups;
  std::vector<double> setup_s;
  Experiment experiment;
  setup_s.push_back(set_up(experiment));
  auto sample_setup = [&] {
    Experiment scratch;
    setup_s.push_back(set_up(scratch));
  };

  // Every repetition must reproduce its reference digest — the pinned one
  // for a seed-1 run of the whole experiment — and pass the engine's
  // accounting checks.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto tally = [&](const RepResult& rep, std::uint64_t expected,
                   const char* what) {
    ++attempted;
    bool ok = rep.outcome.failures.empty();
    for (const std::string& failure : rep.outcome.failures) {
      std::fprintf(stderr, "check failed (%s run): %s\n", what,
                   failure.c_str());
    }
    if (rep.outcome.digest != expected) {
      std::fprintf(stderr, "check failed (%s run): digest %016llx != %016llx\n",
                   what, static_cast<unsigned long long>(rep.outcome.digest),
                   static_cast<unsigned long long>(expected));
      ok = false;
    }
    if (!ok) ++failed;
  };

  const RepResult reference = RunRep(experiment, pool, Mode::kPlain);
  std::uint64_t expected = reference.outcome.digest;
  if (o.seed == 1 && !o.smoke && !o.pinned.empty()) {
    if (const std::uint64_t pinned = PinnedDigest(o.pinned, o.workload)) {
      expected = pinned;
    } else {
      std::fprintf(stderr, "note: no pinned digest for %s\n",
                   o.workload.c_str());
    }
  }
  tally(reference, expected, "reference");

  // Traced runs repeat the first task alone; on multi_tenant that is a
  // different run from the reference, with its own unhooked reference.
  std::optional<RepResult> first_task;
  if (o.trace && experiment.multi_tenant) {
    first_task = RunFirstTask(experiment, pool, Mode::kPlain);
    tally(*first_task, first_task->outcome.digest, "first-task reference");
  }
  const std::uint64_t measured_expected =
      first_task ? first_task->outcome.digest : expected;
  auto measure = [&](Mode mode, const std::string& trace_path) {
    return o.trace ? RunFirstTask(experiment, pool, mode, trace_path)
                   : RunRep(experiment, pool, mode);
  };

  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  const auto window = std::chrono::steady_clock::now();
  double paused_s = 0;
  auto elapsed = [&] { return SecondsSince(window) - paused_s; };
  do {
    if (o.trace && untraced.size() > traced.size()) {
      traced.push_back(
          measure(Mode::kTraced, traced.empty() ? o.trace_file : ""));
      tally(traced.back(), measured_expected, "traced");
    } else {
      untraced.push_back(measure(Mode::kStamped, ""));
      tally(untraced.back(), measured_expected, "stamped");
    }
    if (setup_s.size() < setups &&
        elapsed() >= seconds * static_cast<double>(setup_s.size()) /
                         static_cast<double>(setups)) {
      const auto start = std::chrono::steady_clock::now();
      sample_setup();
      paused_s += SecondsSince(start);
    }
  } while (elapsed() < seconds || (o.trace && traced.empty()));
  while (setup_s.size() < setups) sample_setup();

  std::vector<Metric> metrics;
  std::vector<Probe> probes;
  if (o.trace) {
    // Counters of the whole experiment; the ones MultiTenantEngine does not
    // expose come from its first tenant run alone.
    simdc::bench::Outcome run = reference.outcome;
    if (first_task) run.counters.runtime = first_task->outcome.counters.runtime;
    probes = simdc::bench::RunProbes(experiment, run, o.work_dir + "/probes",
                                     o.smoke);
    metrics = PerLayer(run.counters, untraced, traced, probes);
  } else {
    metrics = EndToEnd(setup_s, untraced);
  }
  const bool correct = failed == 0;

  std::size_t round_samples = 0;
  for (const RepResult& rep : untraced) round_samples += rep.round_ms.size();
  std::string setup_list;
  for (const double s : setup_s) {
    setup_list += (setup_list.empty() ? "" : ", ") + Number(s);
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(reference.outcome.digest));
  std::printf(
      "{\"run\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"smoke\": %s, \"seconds\": %s, \"digest\": \"%s\", \"reps\": %zu, "
      "\"traced_reps\": %zu, \"round_samples\": %zu, \"setup_s\": [%s], "
      "\"env\": {\"commit\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"nproc\": %zu, \"cpu\": %s, \"pool_width\": %zu, \"durable_fs\": %s}}}"
      "\n",
      Quote(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, o.smoke ? "true" : "false", Number(seconds).c_str(),
      digest, untraced.size(), traced.size(), round_samples,
      setup_list.c_str(),
      Quote(o.commit).c_str(), Quote(SIMDC_BENCH_BUILD_TYPE).c_str(),
      Quote(kCompiler).c_str(), nproc, Quote(CpuModel()).c_str(), width,
      Quote(FilesystemOf(o.work_dir)).c_str());

  std::fprintf(stderr, "%s seed %llu%s: %zu reps (%zu traced), %s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.smoke ? " [smoke]" : "", untraced.size(), traced.size(),
               correct ? "all checks passed" : "CHECKS FAILED");
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  if (o.trace) PrintProbeModel(probes, metrics, width);

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + Quote(metrics[i].name) +
            ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
