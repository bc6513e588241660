// Strongly-typed identifiers for the SimDC platform.
//
// The paper's task design (§III-A) requires every task to carry a unique
// task_id used for tracking, shelf routing in DeviceFlow and metrics
// storage. We use distinct wrapper types so a DeviceId can never be passed
// where a TaskId is expected.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace simdc {

namespace detail {

/// CRTP base for a 64-bit strongly-typed id.
template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint64_t value) : value_(value) {}

  constexpr std::uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr bool operator==(StrongId a, StrongId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(StrongId a, StrongId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(StrongId a, StrongId b) {
    return a.value_ < b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << Tag::kPrefix << id.value_;
  }

  std::string ToString() const {
    return std::string(Tag::kPrefix) + std::to_string(value_);
  }

  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

 private:
  std::uint64_t value_ = kInvalid;
};

}  // namespace detail

struct TaskIdTag { static constexpr const char* kPrefix = "task-"; };
struct DeviceIdTag { static constexpr const char* kPrefix = "dev-"; };
struct PhoneIdTag { static constexpr const char* kPrefix = "phone-"; };
struct MessageIdTag { static constexpr const char* kPrefix = "msg-"; };
struct RoundIdTag { static constexpr const char* kPrefix = "round-"; };
struct BlobIdTag { static constexpr const char* kPrefix = "blob-"; };

/// Unique identifier for a submitted task (paper §III-A).
using TaskId = detail::StrongId<TaskIdTag>;
/// Identifier for a *simulated* device (logical or physical slot).
using DeviceId = detail::StrongId<DeviceIdTag>;
/// Identifier for a physical phone in the device cluster.
using PhoneId = detail::StrongId<PhoneIdTag>;
/// Identifier for a DeviceFlow message.
using MessageId = detail::StrongId<MessageIdTag>;
/// Identifier for a blob in cloud storage.
using BlobId = detail::StrongId<BlobIdTag>;

}  // namespace simdc

namespace std {
template <typename Tag>
struct hash<simdc::detail::StrongId<Tag>> {
  size_t operator()(simdc::detail::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
