#include "core/status.h"

#include "common/string_util.h"

namespace simdc::core {

std::string RenderStatus(Platform& platform) {
  std::string out;
  out += StrFormat("=== SimDC platform status @ t=%.1fs ===\n",
                   ToSeconds(platform.loop().Now()));

  const auto snapshot = platform.resources().Snapshot();
  out += StrFormat(
      "resources: %zu/%zu unit bundles free; phones High %zu/%zu free, "
      "Low %zu/%zu free\n",
      snapshot.logical_bundles_free, snapshot.logical_bundles_total,
      snapshot.phones_free[0], snapshot.phones_total[0],
      snapshot.phones_free[1], snapshot.phones_total[1]);

  auto& mgr = platform.phone_mgr();
  out += StrFormat(
      "phone cluster: %zu phones registered (High %zu idle / Low %zu "
      "idle)\n",
      mgr.TotalPhones(), mgr.CountIdle(device::DeviceGrade::kHigh),
      mgr.CountIdle(device::DeviceGrade::kLow));

  auto& queue = platform.queue();
  out += StrFormat("task queue: %zu waiting\n", queue.size());
  for (const auto& task : queue.SnapshotOrdered()) {
    out += StrFormat("  %-12s prio=%-3d devices=%-5zu bundles=%-4zu "
                     "phones=%zu  (%s)\n",
                     task.id.ToString().c_str(), task.priority,
                     task.TotalDevices(), task.TotalLogicalBundles(),
                     task.TotalPhones(), task.name.c_str());
  }

  out += StrFormat("cloud: %zu perf samples\n",
                   platform.metrics().sample_count());
  out += StrFormat("event loop: %zu events processed, %zu pending\n",
                   platform.loop().processed(), platform.loop().pending());
  return out;
}

std::string RenderStatusLine(Platform& platform) {
  const auto snapshot = platform.resources().Snapshot();
  return StrFormat(
      "t=%.1fs queue=%zu bundles_free=%zu/%zu phones_free=%zu samples=%zu",
      ToSeconds(platform.loop().Now()), platform.queue().size(),
      snapshot.logical_bundles_free, snapshot.logical_bundles_total,
      snapshot.phones_free[0] + snapshot.phones_free[1],
      platform.metrics().sample_count());
}

}  // namespace simdc::core
