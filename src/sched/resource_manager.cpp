#include "sched/resource_manager.h"

#include "common/string_util.h"

namespace simdc::sched {

ResourceManager::ResourceManager(
    std::size_t logical_bundles,
    std::array<std::size_t, device::kNumGrades> phones)
    : logical_total_(logical_bundles), phones_total_(phones) {}

bool ResourceManager::FitsLocked(const ResourceRequest& request) const {
  // Compare against what is left, never `used + request`: a huge request
  // would wrap that sum and appear to fit.
  if (request.logical_bundles > logical_total_ - logical_used_) return false;
  for (std::size_t g = 0; g < device::kNumGrades; ++g) {
    if (request.phones[g] > phones_total_[g] - phones_used_[g]) return false;
  }
  return true;
}

bool ResourceManager::Fits(const ResourceRequest& request) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return FitsLocked(request);
}

Status ResourceManager::Freeze(const ResourceRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!FitsLocked(request)) {
    return ResourceExhausted(StrFormat(
        "freeze rejected: want %zu bundles (%zu free), phones H:%zu "
        "(%zu free) L:%zu (%zu free)",
        request.logical_bundles, logical_total_ - logical_used_,
        request.phones[0], phones_total_[0] - phones_used_[0],
        request.phones[1], phones_total_[1] - phones_used_[1]));
  }
  logical_used_ += request.logical_bundles;
  for (std::size_t g = 0; g < device::kNumGrades; ++g) {
    phones_used_[g] += request.phones[g];
  }
  return Status::Ok();
}

Status ResourceManager::Release(const ResourceRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool over = false;
  if (request.logical_bundles > logical_used_) {
    logical_used_ = 0;
    over = true;
  } else {
    logical_used_ -= request.logical_bundles;
  }
  for (std::size_t g = 0; g < device::kNumGrades; ++g) {
    if (request.phones[g] > phones_used_[g]) {
      phones_used_[g] = 0;
      over = true;
    } else {
      phones_used_[g] -= request.phones[g];
    }
  }
  if (over) return FailedPrecondition("release exceeds frozen resources");
  return Status::Ok();
}

ResourceSnapshot ResourceManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ResourceSnapshot snapshot;
  snapshot.logical_bundles_total = logical_total_;
  snapshot.logical_bundles_free = logical_total_ - logical_used_;
  for (std::size_t g = 0; g < device::kNumGrades; ++g) {
    snapshot.phones_total[g] = phones_total_[g];
    snapshot.phones_free[g] = phones_total_[g] - phones_used_[g];
  }
  return snapshot;
}

void ResourceManager::ScaleUpLogical(std::size_t extra_bundles) {
  std::lock_guard<std::mutex> lock(mutex_);
  logical_total_ += extra_bundles;
}

Status ResourceManager::ScaleDownLogical(std::size_t fewer_bundles) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fewer_bundles > logical_total_ ||
      logical_total_ - fewer_bundles < logical_used_) {
    return FailedPrecondition("scale-down below in-use logical bundles");
  }
  logical_total_ -= fewer_bundles;
  return Status::Ok();
}

void ResourceManager::AddPhones(device::DeviceGrade grade, std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  phones_total_[device::GradeIndex(grade)] += count;
}

Status ResourceManager::RemovePhones(device::DeviceGrade grade,
                                     std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t g = device::GradeIndex(grade);
  if (count > phones_total_[g] || phones_total_[g] - count < phones_used_[g]) {
    return FailedPrecondition("cannot remove busy phones");
  }
  phones_total_[g] -= count;
  return Status::Ok();
}

}  // namespace simdc::sched
