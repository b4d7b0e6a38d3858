// Lightweight Status/StatusOr for recoverable errors (I/O in examples,
// configuration validation). Modeled after the RocksDB/Abseil convention:
// functions that can fail in ways the caller should handle return Status.
#ifndef MSDMIXER_COMMON_STATUS_H_
#define MSDMIXER_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "common/check.h"

namespace msd {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kInternal,
  kOutOfRange,
  // Admission control: a bounded resource (request queue, batch slot) is
  // full right now; the caller may retry after backing off.
  kResourceExhausted,
  // The owner shut down / abandoned the work before it ran.
  kCancelled,
};

// Value-semantic error carrier. OK status carries no message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string name;
    switch (code_) {
      case StatusCode::kOk:
        name = "OK";
        break;
      case StatusCode::kInvalidArgument:
        name = "InvalidArgument";
        break;
      case StatusCode::kNotFound:
        name = "NotFound";
        break;
      case StatusCode::kInternal:
        name = "Internal";
        break;
      case StatusCode::kOutOfRange:
        name = "OutOfRange";
        break;
      case StatusCode::kResourceExhausted:
        name = "ResourceExhausted";
        break;
      case StatusCode::kCancelled:
        name = "Cancelled";
        break;
    }
    return name + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Minimal StatusOr: either an OK status with a value, or a non-OK status.
template <typename T>
class StatusOr {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors absl::StatusOr.
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {
    MSD_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    MSD_CHECK(ok()) << status_.ToString();
    return value_;
  }
  T& value() & {
    MSD_CHECK(ok()) << status_.ToString();
    return value_;
  }
  T&& value() && {
    MSD_CHECK(ok()) << status_.ToString();
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace msd

#endif  // MSDMIXER_COMMON_STATUS_H_
