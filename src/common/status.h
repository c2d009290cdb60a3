// Lightweight error handling for the public API. Fallible entry points —
// registry lookups, facade construction (Kairos::Create, Engine::Create,
// Fleet::Create, the only constructors), planning, serving — return a
// Status (or StatusOr<T>) instead of throwing, so callers can branch on
// the error and print the message. No facade throws on caller input; the
// one documented exception is the throughput evaluator's
// std::invalid_argument for a config with no instance, whose double result
// feeds the searches (see DESIGN.md Sec. 7).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace kairos {

/// Broad error category, modeled on the usual cloud-API status codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< malformed request (bad knob, weight <= 0, ...)
  kNotFound,            ///< unknown policy / planner / model name
  kInfeasible,          ///< no configuration satisfies the constraints
  kFailedPrecondition,  ///< call sequencing error (e.g. missing eval fn)
  kInternal,            ///< invariant violation inside the library
};

/// Human-readable name of a StatusCode ("NOT_FOUND", ...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kInfeasible: return "INFEASIBLE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// Success-or-error result of an operation with no return value.
class Status {
 public:
  /// Default status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Infeasible(std::string m) {
    return Status(StatusCode::kInfeasible, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "NOT_FOUND: unknown scheme FCFS++ ..." (or "OK").
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value of type T or a non-OK Status explaining its absence.
/// Accessing value() on an error is a programming bug and asserts via
/// std::abort in all build types (there is deliberately no exception).
template <typename T>
class StatusOr {
 public:
  /// Implicit from a value (the common return path).
  StatusOr(T value) : value_(std::move(value)) {}
  /// Implicit from a non-OK status (the error return path).
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// OK when a value is present, the construction error otherwise.
  const Status& status() const { return status_; }

  const T& value() const& { CheckOk(); return *value_; }
  T& value() & { CheckOk(); return *value_; }
  T&& value() && { CheckOk(); return *std::move(value_); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// The value, or `fallback` when this holds an error.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void CheckOk() const {
    if (!ok()) std::abort();  // accessing value() of an error StatusOr
  }

  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value
};

}  // namespace kairos
