#include "adb/parsers.h"

#include <limits>

#include "common/string_util.h"

namespace simdc::adb {

Result<std::int64_t> ParseSysfsValue(std::string_view text) {
  const auto value = ParseInt(TrimWhitespace(text));
  if (!value) {
    return ParseError("sysfs value not an integer: '" + std::string(text) +
                      "'");
  }
  return *value;
}

Result<int> ParsePgrepPid(std::string_view text) {
  for (const auto& line : SplitLines(text)) {
    const auto pid = ParseInt(line);
    if (!pid) continue;
    // Range-checked before narrowing: a wider value must not wrap into
    // some other process's pid.
    if (*pid < 1 || *pid > std::numeric_limits<int>::max()) {
      return ParseError("pgrep pid out of range: '" + line + "'");
    }
    return static_cast<int>(*pid);
  }
  return ParseError("pgrep output contains no pid");
}

Result<double> ParseTopCpuPercent(std::string_view text, int pid) {
  for (const auto& line : SplitLines(text)) {
    const auto fields = SplitWhitespace(line);
    if (fields.empty()) continue;
    // Compared at full width: a truncated wider pid could alias `pid`.
    const auto first = ParseInt(fields[0]);
    if (!first || *first != pid) continue;
    // Toybox layout: PID USER PR NI VIRT RES SHR S %CPU %MEM TIME+ ARGS
    if (fields.size() < 10) {
      return ParseError("top process line too short: '" + line + "'");
    }
    const auto cpu = ParseDouble(fields[8]);
    if (!cpu) {
      return ParseError("top %CPU field not numeric: '" + fields[8] + "'");
    }
    return *cpu;
  }
  return ParseError("top output has no line for pid " + std::to_string(pid));
}

Result<std::int64_t> ParseDumpsysPssKb(std::string_view text) {
  for (const auto& line : SplitLines(text)) {
    if (!Contains(line, "TOTAL PSS:")) continue;
    const auto pos = line.find("TOTAL PSS:");
    const auto value = FirstIntIn(std::string_view(line).substr(pos + 10));
    if (!value) return ParseError("TOTAL PSS line has no number: '" + line + "'");
    return *value;
  }
  return ParseError("dumpsys output has no TOTAL PSS line");
}

Result<WlanBytes> ParseNetDevWlan(std::string_view text) {
  for (const auto& line : SplitLines(text)) {
    const auto trimmed = TrimWhitespace(line);
    if (!StartsWith(trimmed, "wlan")) continue;
    const auto colon = trimmed.find(':');
    if (colon == std::string_view::npos) continue;
    const auto fields = SplitWhitespace(trimmed.substr(colon + 1));
    // Receive: bytes packets errs drop fifo frame compressed multicast (8)
    // Transmit: bytes ... — tx bytes is field index 8.
    if (fields.size() < 9) {
      return ParseError("net/dev wlan line too short: '" + std::string(line) +
                        "'");
    }
    const auto rx = ParseInt(fields[0]);
    const auto tx = ParseInt(fields[8]);
    if (!rx || !tx) {
      return ParseError("net/dev wlan counters not numeric: '" +
                        std::string(line) + "'");
    }
    return WlanBytes{*rx, *tx};
  }
  return ParseError("net/dev output has no wlan interface");
}

}  // namespace simdc::adb
