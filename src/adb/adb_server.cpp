#include "adb/adb_server.h"

#include <cmath>

#include "common/string_util.h"

namespace simdc::adb {

using device::ApkStage;

Result<std::string> AdbServer::ShellAt(std::string_view command,
                                       SimTime t) const {
  const auto tokens = SplitWhitespace(command);
  if (tokens.empty()) return InvalidArgument("adb shell: empty command");

  if (tokens[0] == "cat" && tokens.size() == 2) {
    const std::string& path = tokens[1];
    if (StartsWith(path, "/proc/") && Contains(path, "/net/dev")) {
      // cat /proc/<pid>/net/dev
      const auto pid = FirstIntIn(path.substr(6));
      if (!pid) return ParseError("bad /proc path: " + path);
      return NetDev(static_cast<int>(*pid), t);
    }
    return CatFile(path, t);
  }
  if (tokens[0] == "pgrep") {
    // pgrep -f <name>
    if (tokens.size() == 3 && tokens[1] == "-f") return Pgrep(tokens[2], t);
    return InvalidArgument("pgrep: expected 'pgrep -f <name>'");
  }
  if (tokens[0] == "top") {
    // top -b -n 1 -p <pid>
    int pid = -1;
    for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
      if (tokens[i] == "-p") {
        const auto parsed = ParseInt(tokens[i + 1]);
        if (!parsed) return InvalidArgument("top: bad pid " + tokens[i + 1]);
        pid = static_cast<int>(*parsed);
      }
    }
    if (pid < 0) return InvalidArgument("top: missing -p <pid>");
    return Top(pid, t);
  }
  if (tokens[0] == "dumpsys") {
    if (tokens.size() >= 3 && tokens[1] == "meminfo") {
      return DumpsysMeminfo(tokens[2], t);
    }
    // The paper's shorthand is `dumpsys <process_name>`; accept it too.
    if (tokens.size() == 2) return DumpsysMeminfo(tokens[1], t);
    return InvalidArgument("dumpsys: expected 'dumpsys meminfo <name>'");
  }
  return NotFound("adb shell: unsupported command '" + std::string(command) +
                  "'");
}

Result<std::string> AdbServer::CatFile(std::string_view path, SimTime t) const {
  if (path == "/sys/class/power_supply/battery/current_now") {
    return StrFormat("%lld\n",
                     static_cast<long long>(phone_.CurrentNowMicroAmps(t)));
  }
  if (path == "/sys/class/power_supply/battery/voltage_now") {
    return StrFormat("%lld\n",
                     static_cast<long long>(phone_.VoltageNowMicroVolts(t)));
  }
  return NotFound("cat: " + std::string(path) + ": No such file or directory");
}

Result<std::string> AdbServer::Pgrep(std::string_view name, SimTime t) const {
  const auto pid = phone_.PidOf(name, t);
  if (!pid) return NotFound("pgrep: no process matching '" + std::string(name) + "'");
  return StrFormat("%d\n", *pid);
}

Result<std::string> AdbServer::Top(int pid, SimTime t) const {
  const device::RunPlan* plan = phone_.PlanCovering(t);
  if (plan == nullptr || plan->pid != pid) {
    return NotFound(StrFormat("top: no process with pid %d", pid));
  }
  const double cpu = phone_.CpuPercentAt(t);
  const double mem_mb =
      static_cast<double>(phone_.MemPssKbAt(t)) / 1024.0;
  const double total_mem_kb = phone_.spec().memory_gb * 1024.0 * 1024.0;
  const double mem_pct = mem_mb * 1024.0 / total_mem_kb * 100.0;

  // Toybox `top -b -n 1` layout: global header lines followed by the
  // process table. Parsers must skip the header noise.
  std::string out;
  out += StrFormat("Tasks: 612 total,   1 running, 611 sleeping,"
                   "   0 stopped,   0 zombie\n");
  out += StrFormat("  Mem: %10.0fK total, %10.0fK used, %9.0fK free\n",
                   total_mem_kb, total_mem_kb * 0.71, total_mem_kb * 0.29);
  out += StrFormat("800%%cpu  %3.0f%%user   0%%nice  %3.0f%%sys "
                   " %3.0f%%idle   0%%iow\n",
                   cpu * 6.0, cpu * 2.0, 800.0 - cpu * 8.0);
  out += "  PID USER         PR  NI VIRT  RES  SHR S %CPU %MEM     TIME+ "
         "ARGS\n";
  out += StrFormat(
      "%5d u0_a217      20   0 1.9G %3.0fM %3.0fM S %4.1f %4.1f   1:23.45 "
      "%s\n",
      pid, mem_mb * 1.6, mem_mb * 0.8, cpu, mem_pct, device::kTrainingProcess);
  return out;
}

Result<std::string> AdbServer::DumpsysMeminfo(std::string_view name,
                                              SimTime t) const {
  const auto pid = phone_.PidOf(name, t);
  if (!pid) {
    return NotFound("No process found for: " + std::string(name));
  }
  const std::int64_t pss_kb = phone_.MemPssKbAt(t);
  std::string out;
  out += StrFormat("Applications Memory Usage (in Kilobytes):\n");
  out += StrFormat("Uptime: %lld Realtime: %lld\n\n",
                   static_cast<long long>(t / 1000),
                   static_cast<long long>(t / 1000));
  out += StrFormat("** MEMINFO in pid %d [%s] **\n", *pid,
                   std::string(name).c_str());
  out += "                   Pss  Private  Private  SwapPss      Rss\n";
  out += "                 Total    Dirty    Clean    Dirty    Total\n";
  out += StrFormat("  Native Heap  %8lld %8lld %8d %8d %8lld\n",
                   static_cast<long long>(pss_kb / 3),
                   static_cast<long long>(pss_kb / 4), 128, 0,
                   static_cast<long long>(pss_kb / 2));
  out += StrFormat("  Dalvik Heap  %8lld %8lld %8d %8d %8lld\n",
                   static_cast<long long>(pss_kb / 5),
                   static_cast<long long>(pss_kb / 6), 64, 0,
                   static_cast<long long>(pss_kb / 4));
  out += StrFormat("        TOTAL PSS: %lld            TOTAL RSS: %lld"
                   "       TOTAL SWAP PSS: 0\n",
                   static_cast<long long>(pss_kb),
                   static_cast<long long>(pss_kb * 3 / 2));
  out += "\n App Summary\n";
  out += StrFormat("           Java Heap: %lld\n",
                   static_cast<long long>(pss_kb / 5));
  return out;
}

Result<std::string> AdbServer::NetDev(int pid, SimTime t) const {
  const device::RunPlan* plan = phone_.PlanCovering(t);
  if (plan == nullptr || plan->pid != pid) {
    return NotFound(StrFormat("cat: /proc/%d/net/dev: No such file or "
                              "directory",
                              pid));
  }
  const auto wlan = phone_.WlanAt(t);
  std::string out;
  out += "Inter-|   Receive                                                "
         "|  Transmit\n";
  out += " face |bytes    packets errs drop fifo frame compressed multicast"
         "|bytes    packets errs drop fifo colls carrier compressed\n";
  out += StrFormat("    lo: %8lld %7lld    0    0    0     0          0   "
                   "      0 %8lld %7lld    0    0    0     0       0    "
                   "      0\n",
                   123456LL, 890LL, 123456LL, 890LL);
  out += StrFormat(" wlan0: %lld %lld    0    0    0     0          0      "
                   "   0 %lld %lld    0    0    0     0       0          0\n",
                   static_cast<long long>(wlan.rx_bytes),
                   static_cast<long long>(wlan.rx_bytes / 1200 + 1),
                   static_cast<long long>(wlan.tx_bytes),
                   static_cast<long long>(wlan.tx_bytes / 1200 + 1));
  return out;
}

}  // namespace simdc::adb
