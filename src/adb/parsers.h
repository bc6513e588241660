// Post-processing parsers for ADB command output.
//
// §IV-C: "The information collected typically contains other non-essential
// data, requiring post-processing to extract valid data." These parsers
// are the post-processing step: they take raw shell text (from a real
// handset or from AdbServer) and extract the metric values PhoneMgr
// uploads to the cloud database.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/error.h"

namespace simdc::adb {

/// Parses a single-value sysfs read (current_now / voltage_now).
Result<std::int64_t> ParseSysfsValue(std::string_view text);

/// Parses `pgrep -f` output: first pid line. A pid outside [1, INT_MAX]
/// is a ParseError.
Result<int> ParsePgrepPid(std::string_view text);

/// Extracts the %CPU column for `pid` from `top -b -n 1 -p <pid>` output.
Result<double> ParseTopCpuPercent(std::string_view text, int pid);

/// Extracts TOTAL PSS (KB) from `dumpsys meminfo` output (the paper greps
/// for "PSS").
Result<std::int64_t> ParseDumpsysPssKb(std::string_view text);

struct WlanBytes {
  std::int64_t rx_bytes = 0;
  std::int64_t tx_bytes = 0;
  /// "encompasses both received and transmitted data that need to be
  /// extracted and summed" (§IV-C).
  std::int64_t total() const { return rx_bytes + tx_bytes; }
};

/// Extracts wlan interface byte counters from /proc/<pid>/net/dev output.
Result<WlanBytes> ParseNetDevWlan(std::string_view text);

}  // namespace simdc::adb
