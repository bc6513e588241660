// Lightweight error and result types used across SimDC.
//
// SimDC is a simulation platform: most failures (bad task specs, exhausted
// resources, malformed ADB output) are expected, recoverable conditions the
// caller must handle, so the public API reports them through Result<T>
// rather than exceptions. Exceptions are reserved for programming errors
// (precondition violations) via SIMDC_CHECK.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace simdc {

/// Coarse error categories; fine detail lives in the message.
enum class ErrorCode : std::uint8_t {
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kParseError,
  kTimeout,
  kInternal,
  /// Stored data that should be there is gone or corrupt (e.g. a blob
  /// log shorter than the prefix its checkpoint pins).
  kDataLoss,
};

/// Human-readable name for an ErrorCode.
constexpr const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "InvalidArgument";
    case ErrorCode::kNotFound: return "NotFound";
    case ErrorCode::kAlreadyExists: return "AlreadyExists";
    case ErrorCode::kResourceExhausted: return "ResourceExhausted";
    case ErrorCode::kFailedPrecondition: return "FailedPrecondition";
    case ErrorCode::kUnavailable: return "Unavailable";
    case ErrorCode::kParseError: return "ParseError";
    case ErrorCode::kTimeout: return "Timeout";
    case ErrorCode::kInternal: return "Internal";
    case ErrorCode::kDataLoss: return "DataLoss";
  }
  return "Unknown";
}

/// An error: a code plus a message describing what went wrong.
class Error {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    std::string out = simdc::ToString(code_);
    out += ": ";
    out += message_;
    return out;
  }

  friend bool operator==(const Error& a, const Error& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

/// Result<T> holds either a value or an Error (a minimal std::expected).
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit wrap.
  Result(T value) : data_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Error error) : data_(std::move(error)) {}

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  /// Value access. Precondition: ok().
  const T& value() const& {
    RequireOk();
    return std::get<T>(data_);
  }
  T& value() & {
    RequireOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    RequireOk();
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Error access. Precondition: !ok().
  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() called on OK result");
    return std::get<Error>(data_);
  }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  void RequireOk() const {
    if (!ok()) {
      throw std::logic_error("Result::value() on error: " +
                             std::get<Error>(data_).ToString());
    }
  }

  std::variant<T, Error> data_;
};

/// Result specialization for operations without a payload.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  // NOLINTNEXTLINE(google-explicit-constructor)
  Status(Error error) : error_(std::move(error)) {}

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    if (ok()) throw std::logic_error("Status::error() called on OK status");
    return *error_;
  }

  std::string ToString() const { return ok() ? "OK" : error_->ToString(); }

  static Status Ok() { return Status(); }

 private:
  std::optional<Error> error_;
};

/// Convenience factories.
inline Error InvalidArgument(std::string msg) {
  return Error(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Error NotFound(std::string msg) {
  return Error(ErrorCode::kNotFound, std::move(msg));
}
inline Error AlreadyExists(std::string msg) {
  return Error(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Error ResourceExhausted(std::string msg) {
  return Error(ErrorCode::kResourceExhausted, std::move(msg));
}
inline Error FailedPrecondition(std::string msg) {
  return Error(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Error Unavailable(std::string msg) {
  return Error(ErrorCode::kUnavailable, std::move(msg));
}
inline Error ParseError(std::string msg) {
  return Error(ErrorCode::kParseError, std::move(msg));
}
inline Error Timeout(std::string msg) {
  return Error(ErrorCode::kTimeout, std::move(msg));
}
inline Error Internal(std::string msg) {
  return Error(ErrorCode::kInternal, std::move(msg));
}
inline Error DataLoss(std::string msg) {
  return Error(ErrorCode::kDataLoss, std::move(msg));
}

/// Precondition check: throws std::invalid_argument on failure.
#define SIMDC_CHECK(cond, msg)                                     \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::ostringstream simdc_check_oss_;                         \
      simdc_check_oss_ << "SIMDC_CHECK failed: " #cond " — " << msg; \
      throw std::invalid_argument(simdc_check_oss_.str());         \
    }                                                              \
  } while (0)

/// Debug-build-only check for hot-path invariants (feature-index bounds in
/// the ML kernels): active when NDEBUG is not defined, compiled out of
/// Release builds entirely. A corrupt input (e.g. a quantized blob decoded
/// against the wrong dimension) must fail loudly in debug runs, never UB.
#ifndef NDEBUG
#define SIMDC_DCHECK(cond, msg) SIMDC_CHECK(cond, msg)
#else
#define SIMDC_DCHECK(cond, msg) \
  do {                          \
    (void)sizeof(cond);         \
  } while (0)
#endif

}  // namespace simdc
