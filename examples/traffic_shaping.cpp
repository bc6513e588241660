// Traffic shaping: simulate a day of global device traffic hitting a
// cloud service through DeviceFlow.
//
// Scenario (paper §V, Fig. 3): a fleet spread across time zones produces a
// diurnal two-peak traffic pattern. A capacity-planning engineer wants to
// know the peak arrival rate their aggregation endpoint must sustain and
// how a burst at a single time point smears under DeviceFlow's 700 msg/s
// sender. We shape 100,000 device reports over a virtual 24 h with a
// user-defined diurnal curve and print the hourly load profile the cloud
// observes.
//
// Build & run:  ./build/examples/traffic_shaping
#include <cstdio>
#include <vector>

#include "flow/device_flow.h"
#include "flow/rate_functions.h"
#include "sim/event_loop.h"

namespace {

using namespace simdc;

class HourlyLoadEndpoint final : public flow::CloudEndpoint {
 public:
  explicit HourlyLoadEndpoint(double hours) : per_hour_(static_cast<std::size_t>(hours), 0) {}

  void DeliverTick(std::vector<flow::Message> tick) override {
    for (const flow::Message& message : tick) {
      const auto hour =
          static_cast<std::size_t>(ToSeconds(message.arrival) / 3600.0);
      if (hour < per_hour_.size()) ++per_hour_[hour];
      ++total_;
    }
  }

  const std::vector<std::size_t>& per_hour() const { return per_hour_; }
  std::size_t total() const { return total_; }

 private:
  std::vector<std::size_t> per_hour_;
  std::size_t total_ = 0;
};

}  // namespace

int main() {
  sim::EventLoop loop;
  flow::DeviceFlow device_flow(loop);
  HourlyLoadEndpoint cloud(24);

  // User-defined diurnal curve: morning peak ~9:30, bigger evening peak
  // ~20:00, scaled onto a 24 h dispatch interval.
  flow::TimeIntervalDispatch strategy;
  strategy.rate = flow::DiurnalCurve();
  strategy.interval = Seconds(24.0 * 3600.0);
  strategy.failure_probability = 0.02;  // 2% of uploads fail in transit
  if (!device_flow.ConfigureTask(TaskId(1), strategy, &cloud, 2024).ok()) {
    return 1;
  }

  // 100,000 device reports accumulated from the edge during the "night".
  constexpr std::size_t kReports = 100000;
  for (std::size_t i = 0; i < kReports; ++i) {
    flow::Message m;
    m.id = MessageId(i + 1);
    m.task = TaskId(1);
    m.device = DeviceId(i);
    if (!device_flow.OnMessage(std::move(m)).ok()) return 1;
  }
  if (!device_flow.OnRoundEnd(TaskId(1), 0).ok()) return 1;
  loop.Run();

  std::printf("Diurnal traffic of %zu devices over a virtual day "
              "(2%% dropout):\n\n", kReports);
  std::printf("%6s %10s  %s\n", "hour", "arrivals", "load");
  std::size_t peak = 0;
  for (std::size_t h = 0; h < 24; ++h) {
    peak = std::max(peak, cloud.per_hour()[h]);
  }
  for (std::size_t h = 0; h < 24; ++h) {
    const std::size_t n = cloud.per_hour()[h];
    const std::size_t bar = peak == 0 ? 0 : n * 50 / peak;
    std::printf("%4zu:00 %9zu  %s\n", h, n, std::string(bar, '#').c_str());
  }
  const auto& stats = device_flow.FindDispatcher(TaskId(1))->stats();
  std::printf("\nreceived by cloud: %zu, dropped in transit: %zu\n",
              cloud.total(), stats.dropped);
  std::printf("peak hourly load: %zu messages (%.1f msg/s sustained)\n", peak,
              static_cast<double>(peak) / 3600.0);
  std::printf("provisioning hint: the aggregation endpoint must sustain the "
              "evening peak,\nnot the daily average (%.1f msg/s).\n",
              static_cast<double>(cloud.total()) / (24.0 * 3600.0));
  return 0;
}
