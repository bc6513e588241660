#include "phonemgr/phone_mgr.h"

#include <algorithm>
#include <cmath>

#include "adb/parsers.h"
#include "common/log.h"
#include "common/string_util.h"

namespace simdc::device {
namespace {

constexpr double kClosureSeconds = 15.0;  // Table I stage 5: 0.25 min

}  // namespace

PhoneId PhoneMgr::RegisterPhone(const PhoneSpec& spec) {
  // First registration wins: a second phone with the same id would be
  // unreachable through every id-keyed path (FindPhone, CountersFor,
  // ReleasePhone) and would desynchronize the idle free-lists, so it is
  // not admitted at all.
  if (store_.SlotOf(spec.id.value()) != npos) return spec.id;
  const std::size_t slot =
      store_.Add(spec.id.value(), GradeIndex(spec.grade), LocalityIndex(spec));
  if (slot == phone_slots_.size()) {
    phone_slots_.emplace_back();
    adb_slots_.emplace_back();
  }
  phone_slots_[slot] = std::make_unique<Phone>(spec, loop_.clock());
  adb_slots_[slot] = std::make_unique<adb::AdbServer>(*phone_slots_[slot]);
  return spec.id;
}

void PhoneMgr::RegisterFleet(const std::vector<PhoneSpec>& fleet) {
  for (const auto& spec : fleet) RegisterPhone(spec);
}

Status PhoneMgr::UnregisterPhone(PhoneId id) {
  const std::size_t slot = store_.SlotOf(id.value());
  if (slot == npos) return NotFound("unknown phone " + id.ToString());
  if (store_.busy(slot)) {
    return FailedPrecondition("cannot unregister busy phone " +
                              id.ToString());
  }
  // Incremental O(log n) removal: tombstone the slot (the free-lists and
  // the id map are updated in place) and drop the cold objects. No array
  // shift, no rebuild — registration-order selection survives because the
  // idle sets are keyed by registration sequence, not slot number.
  store_.Remove(slot);
  adb_slots_[slot].reset();  // before the Phone it observes
  phone_slots_[slot].reset();
  return Status::Ok();
}

Phone* PhoneMgr::FindPhone(PhoneId id) {
  const std::size_t slot = store_.SlotOf(id.value());
  return slot == npos ? nullptr : phone_slots_[slot].get();
}

const Phone* PhoneMgr::FindPhone(PhoneId id) const {
  const std::size_t slot = store_.SlotOf(id.value());
  return slot == npos ? nullptr : phone_slots_[slot].get();
}

adb::AdbServer* PhoneMgr::FindAdb(PhoneId id) {
  const std::size_t slot = store_.SlotOf(id.value());
  return slot == npos ? nullptr : adb_slots_[slot].get();
}

std::optional<PhonePerfCounters> PhoneMgr::CountersFor(PhoneId id) const {
  const std::size_t slot = store_.SlotOf(id.value());
  if (slot == npos) return std::nullopt;
  return store_.counters(slot);
}

void PhoneMgr::ReleasePhone(PhoneId id) {
  const std::size_t slot = store_.SlotOf(id.value());
  if (slot == npos) return;  // unregistered while its job wound down
  store_.SetOwner(slot, TaskId());
  store_.SetBusy(slot, false);
}

Result<PhoneJobHandle> PhoneMgr::SubmitJob(const PhoneJob& job) {
  if (job.rounds == 0) return InvalidArgument("PhoneJob: rounds == 0");
  if (job.devices_to_simulate > 0 && job.computing_phones == 0) {
    return InvalidArgument("PhoneJob: devices to simulate but no phones");
  }
  const std::size_t want =
      job.computing_phones + job.benchmarking_phones;
  if (want == 0) return InvalidArgument("PhoneJob: no phones requested");
  if (CountIdle(job.grade) < want) {
    return ResourceExhausted(StrFormat(
        "PhoneMgr: need %zu idle %s-grade phones, have %zu", want,
        std::string(ToString(job.grade)).c_str(), CountIdle(job.grade)));
  }

  // The store's free-lists are ordered local-before-MSP, registration
  // order within each, so selection reproduces the historical linear scan
  // at O(count log n).
  std::vector<std::size_t> selected;
  selected.reserve(want);
  store_.SelectIdle(GradeIndex(job.grade), want, selected);
  const std::vector<std::size_t> benchmarking(
      selected.begin(),
      selected.begin() + static_cast<std::ptrdiff_t>(job.benchmarking_phones));
  const std::vector<std::size_t> computing(
      selected.begin() + static_cast<std::ptrdiff_t>(job.benchmarking_phones),
      selected.end());

  PhoneJobHandle handle;
  handle.task = job.task;
  InstallPlans(job, computing, benchmarking, handle);

  for (const std::size_t slot : benchmarking) ArmSampler(slot, job);

  // Completion: free phones and fire the callback at the latest closure.
  std::vector<PhoneId> all_ids = handle.computing;
  all_ids.insert(all_ids.end(), handle.benchmarking.begin(),
                 handle.benchmarking.end());
  const TaskId task = job.task;
  auto on_complete = job.on_complete;
  loop_.ScheduleAt(handle.finish_time, [this, all_ids, task, on_complete] {
    for (PhoneId id : all_ids) ReleasePhone(id);
    if (on_complete) on_complete(task, loop_.Now());
  });
  return handle;
}

void PhoneMgr::InstallPlans(const PhoneJob& job,
                            const std::vector<std::size_t>& computing,
                            const std::vector<std::size_t>& benchmarking,
                            PhoneJobHandle& handle) {
  const SimTime now = loop_.Now();
  // Devices multiplex over computing phones: each phone sequentially
  // simulates ceil(N/m) devices per round (paper §IV-B: a single physical
  // device is "capable of repetitive emulation of multiple devices").
  const std::size_t reps =
      computing.empty() ? 0
                        : (job.devices_to_simulate + computing.size() - 1) /
                              computing.size();
  // Round-completion hooks for the whole job are collected and inserted
  // with one heap rebuild (phones × rounds of them at 10k-fleet scale).
  std::vector<sim::TimedEvent> hooks;
  hooks.reserve((computing.size() + benchmarking.size()) * job.rounds);

  auto install = [&](std::size_t slot, std::size_t device_batches) {
    Phone& phone = *phone_slots_[slot];
    const SimTime train_window =
        Seconds(job.round_duration_s * static_cast<double>(
                                           std::max<std::size_t>(1, device_batches)));
    // Crash draws are deterministic per (job seed, phone); the entire
    // schedule — including crash truncations and recovery relaunches — is
    // computed up front, so phone state stays a pure function of time.
    Rng crash_rng =
        Rng(job.seed ^ job.task.value()).Split(phone.spec().id.value());

    RunPlan plan;
    plan.apk_launch_start = now + Seconds(job.pre_idle_s);
    plan.pid = next_pid_++;
    SimTime cursor = plan.apk_launch_start + Seconds(job.startup_s);
    SimTime end = 0;
    std::size_t round = 0;
    std::size_t attempts = 0;
    while (round < job.rounds) {
      const bool crash = job.crash_probability > 0.0 &&
                         crash_rng.Bernoulli(job.crash_probability);
      RoundWindow window;
      window.train_start = cursor;
      window.download_bytes = job.download_bytes;
      if (crash) {
        // The APK dies partway through the round: no upload, abrupt
        // closure, then a recovery relaunch that retries the round.
        ++handle.crashes;
        ++store_.counters(slot).crashes;
        const double fraction = crash_rng.Uniform(0.1, 0.9);
        window.train_end =
            cursor + std::max<SimTime>(
                         1, static_cast<SimTime>(
                                static_cast<double>(train_window) * fraction));
        window.upload_bytes = 0;
        plan.rounds.push_back(window);
        plan.closure_start = window.train_end;
        plan.closure_end = window.train_end + Seconds(1.0);
        const SimTime relaunch =
            plan.closure_end + Seconds(job.crash_recovery_s);
        phone.ScheduleRun(std::move(plan));
        plan = RunPlan{};
        plan.apk_launch_start = relaunch;
        plan.pid = next_pid_++;
        cursor = relaunch + Seconds(job.startup_s);
        if (++attempts >= job.max_round_attempts) {
          ++handle.abandoned_rounds;
          attempts = 0;
          ++round;  // give up on this round
        }
        continue;
      }
      window.train_end = cursor + train_window;
      window.upload_bytes = job.upload_bytes;
      plan.rounds.push_back(window);
      // Fire the round-completion hook (message to DeviceFlow) and credit
      // the phone's counter. Counter bumps go through the id map, not the
      // slot, in case the phone is unregistered (and its slot reused)
      // between scheduling and firing.
      {
        const PhoneId id = phone.spec().id;
        auto hook = job.on_round_complete;
        const std::size_t completed = round;
        hooks.push_back({window.train_end, [hook, id, completed, this] {
                           const std::size_t s = store_.SlotOf(id.value());
                           if (s != npos) {
                             ++store_.counters(s).rounds_completed;
                           }
                           if (hook) hook(id, completed, loop_.Now());
                         }});
      }
      cursor = window.train_end + Seconds(job.aggregation_wait_s);
      attempts = 0;
      ++round;
    }
    if (plan.rounds.empty()) {
      // Every round of the final segment crashed away; the previous
      // segment already closed the APK.
      end = cursor;
    } else {
      plan.closure_start = cursor;
      plan.closure_end = cursor + Seconds(kClosureSeconds);
      end = plan.closure_end;
      phone.ScheduleRun(std::move(plan));
    }
    store_.SetBusy(slot, true);
    store_.SetOwner(slot, job.task);
    ++store_.counters(slot).jobs_assigned;
    handle.finish_time = std::max(handle.finish_time, end);
  };

  for (const std::size_t slot : computing) {
    install(slot, reps);
    handle.computing.push_back(phone_slots_[slot]->spec().id);
  }
  for (const std::size_t slot : benchmarking) {
    // Benchmarking devices train exactly one device's workload per round.
    install(slot, 1);
    handle.benchmarking.push_back(phone_slots_[slot]->spec().id);
  }
  (void)loop_.ScheduleBulk(std::move(hooks));
}

void PhoneMgr::ArmSampler(std::size_t slot, const PhoneJob& job) {
  Phone* phone = phone_slots_[slot].get();
  const RunPlan* plan = phone->plan();
  if (plan == nullptr) return;
  // Sampling starts immediately (covering the pre-launch idle stage) and
  // runs through APK closure. One self-rescheduling sampler event per
  // phone keeps the heap at one live event per benchmarking phone instead
  // of one closure per sample (a week of 15 s samples is ~40k closures).
  const SimDuration period =
      job.sample_period > 0 ? job.sample_period : Seconds(1.0);
  const SimTime end = plan->closure_end;
  adb::AdbServer* shell = adb_slots_[slot].get();
  const TaskId task = job.task;
  const PhoneId phone_id = phone->spec().id;
  loop_.ScheduleAt(loop_.Now(), [this, shell, phone, task, phone_id, period,
                                 end] {
    RunSampler(shell, phone, task, phone_id, period, end);
  });
}

void PhoneMgr::RunSampler(adb::AdbServer* shell, Phone* phone, TaskId task,
                          PhoneId phone_id, SimDuration period, SimTime end) {
  if (sink_ != nullptr) {
    // A real deployment issues these exact ADB commands (§IV-C) and
    // post-processes the text; we do the same against the simulation.
    PerfSample sample;
    sample.phone = phone_id;
    sample.task = task;
    sample.time = loop_.Now();
    sample.stage = phone->CurrentStage();

    if (auto out = shell->Shell(
            "cat /sys/class/power_supply/battery/current_now");
        out.ok()) {
      if (auto v = adb::ParseSysfsValue(*out); v.ok()) sample.current_ua = *v;
    }
    if (auto out = shell->Shell(
            "cat /sys/class/power_supply/battery/voltage_now");
        out.ok()) {
      if (auto v = adb::ParseSysfsValue(*out); v.ok()) {
        sample.voltage_mv = static_cast<double>(*v) / 1000.0;
      }
    }
    if (auto pgrep = shell->Shell(StrFormat("pgrep -f %s", kTrainingProcess));
        pgrep.ok()) {
      if (auto pid = adb::ParsePgrepPid(*pgrep); pid.ok()) {
        if (auto top = shell->Shell(StrFormat("top -b -n 1 -p %d", *pid));
            top.ok()) {
          if (auto cpu = adb::ParseTopCpuPercent(*top, *pid); cpu.ok()) {
            sample.cpu_percent = *cpu;
          }
        }
        if (auto mem = shell->Shell(
                StrFormat("dumpsys meminfo %s", kTrainingProcess));
            mem.ok()) {
          if (auto pss = adb::ParseDumpsysPssKb(*mem); pss.ok()) {
            sample.memory_kb = *pss;
          }
        }
        if (auto net = shell->Shell(StrFormat("cat /proc/%d/net/dev", *pid));
            net.ok()) {
          if (auto wlan = adb::ParseNetDevWlan(*net); wlan.ok()) {
            sample.bandwidth_bytes = wlan->total();
          }
        }
      }
    }
    sink_->Record(sample);
    if (const std::size_t slot = store_.SlotOf(phone_id.value());
        slot != npos) {
      ++store_.counters(slot).samples_recorded;
    }
  }
  const SimTime next = loop_.Now() + period;
  if (next > end) return;
  loop_.ScheduleAt(next, [this, shell, phone, task, phone_id, period, end] {
    RunSampler(shell, phone, task, phone_id, period, end);
  });
}

Status PhoneMgr::TerminateTask(TaskId task) {
  bool found = false;
  for (std::size_t slot = 0; slot < store_.slot_count(); ++slot) {
    if (!store_.live(slot)) continue;
    if (store_.owner(slot) == task && store_.busy(slot)) {
      phone_slots_[slot]->ClearPlan();
      ReleasePhone(phone_slots_[slot]->spec().id);
      found = true;
    }
  }
  if (!found) return NotFound("no running phones for " + task.ToString());
  return Status::Ok();
}

double PhoneMgr::PredictJobSeconds(const PhoneJob& job) {
  const std::size_t reps =
      job.computing_phones == 0
          ? 1
          : (job.devices_to_simulate + job.computing_phones - 1) /
                job.computing_phones;
  const double per_round =
      job.round_duration_s * static_cast<double>(std::max<std::size_t>(1, reps));
  return job.startup_s +
         static_cast<double>(job.rounds) * (per_round + job.aggregation_wait_s) +
         kClosureSeconds;
}

}  // namespace simdc::device
