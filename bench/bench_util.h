// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation section (§VI), printing the same rows/series. All benches run
// on the virtual clock with fixed seeds, so output is deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#define SIMDC_BENCH_HAS_RUSAGE 1
#endif

namespace simdc::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

/// Renders a compact ASCII sparkline of a series (for figure-style output).
inline std::string Sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  double lo = values.empty() ? 0.0 : values[0];
  double hi = lo;
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.0;
    out += kLevels[static_cast<int>(norm * 7.0 + 0.5)];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-op wall-clock timings. Benches record named hot-path operations and
// emit machine-readable `OPTIME <op> <calls> <total_ns>` lines on exit;
// run_all.sh folds them into the BENCH_*.json artifacts as an "ops" map, a
// per-run record of where a bench spent its time that CI uploads and
// nothing compares (perf claims are judged by benchmark/run.sh). Not
// thread-safe: record from the main thread only.
// ---------------------------------------------------------------------------

class OpTimings {
 public:
  static OpTimings& Instance() {
    static OpTimings timings;
    return timings;
  }

  void Record(const std::string& op, std::uint64_t total_ns,
              std::uint64_t calls = 1) {
    Entry& entry = ops_[op];
    entry.calls += calls;
    entry.total_ns += total_ns;
  }

  /// Prints one OPTIME line per recorded op (sorted by name, so output
  /// layout is deterministic even though the timings are not).
  void Emit() const {
    for (const auto& [op, entry] : ops_) {
      std::printf("OPTIME %s %llu %llu\n", op.c_str(),
                  static_cast<unsigned long long>(entry.calls),
                  static_cast<unsigned long long>(entry.total_ns));
    }
  }

 private:
  struct Entry {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Entry> ops_;
};

/// Times a scope and records it under `op` on destruction.
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(std::string op)
      : op_(std::move(op)), start_(std::chrono::steady_clock::now()) {}
  ~ScopedOpTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    OpTimings::Instance().Record(
        op_, static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                     .count()));
  }
  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  std::string op_;
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Peak-RSS accounting. Benches snapshot the process's high-water resident
// set at interesting points (after each scale-ladder rung, say) and emit
// `OPRSS <label> <bytes>` lines next to the OPTIME ones; run_all.sh folds
// them into the BENCH_*.json artifacts as an "rss" map, recorded beside the
// "ops" one. Peak RSS is monotone over a process's life, so a label
// records the high-water mark *as of* that point — attribute per-phase
// memory by snapshotting in ascending-footprint order and diffing.
// ---------------------------------------------------------------------------

/// Peak resident set size of this process in bytes via getrusage; 0 when
/// the platform offers no rusage.
inline std::uint64_t PeakRssBytes() {
#if defined(SIMDC_BENCH_HAS_RUSAGE)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Named byte-quantity registry (peak-RSS snapshots, bytes-per-device
/// figures). Same-label records max-merge, matching peak semantics.
class OpRss {
 public:
  static OpRss& Instance() {
    static OpRss rss;
    return rss;
  }

  void Record(const std::string& label, std::uint64_t bytes) {
    std::uint64_t& slot = labels_[label];
    if (bytes > slot) slot = bytes;
  }

  /// Records the current process peak RSS under `label`.
  void RecordPeakNow(const std::string& label) {
    Record(label, PeakRssBytes());
  }

  /// One OPRSS line per label, sorted for deterministic layout.
  void Emit() const {
    for (const auto& [label, bytes] : labels_) {
      std::printf("OPRSS %s %llu\n", label.c_str(),
                  static_cast<unsigned long long>(bytes));
    }
  }

 private:
  std::map<std::string, std::uint64_t> labels_;
};

/// Emits every recorded OPTIME line plus the OPRSS lines, always including
/// a `process_peak` RSS stamp so each artifact carries a memory figure even
/// when the bench recorded no explicit snapshots.
inline void EmitOpTimings() {
  OpTimings::Instance().Emit();
  OpRss::Instance().RecordPeakNow("process_peak");
  OpRss::Instance().Emit();
}

}  // namespace simdc::bench
