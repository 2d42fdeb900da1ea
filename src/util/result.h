// Result/StatusCode: recoverable-error handling for pseudo-file I/O paths.
//
// The Core Guidelines (E.2/E.3) reserve exceptions for genuine error
// conditions the caller cannot handle locally. In this library a denied read
// of a masked pseudo file is *data* (the leakage detector classifies it), so
// pseudo-fs reads return Result<std::string> instead of throwing.
#pragma once

#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace cleaks {

/// Error categories for recoverable failures on the simulated kernel
/// interface boundary. Values intentionally mirror errno semantics so that
/// pseudo-file behaviour reads like real procfs/sysfs behaviour.
enum class StatusCode {
  kOk = 0,
  kNotFound,          ///< ENOENT: path does not exist in this view.
  kPermissionDenied,  ///< EACCES: masked by policy (stage-1 defense).
  kNotSupported,      ///< ENOTSUP: hardware absent (e.g. no RAPL).
  kInvalidArgument,   ///< EINVAL: malformed request.
  kUnavailable,       ///< EBUSY / transient failure.
};

/// Human-readable name for a StatusCode, for logs and test diagnostics.
std::string_view to_string(StatusCode code) noexcept;

/// A status with an optional detail message. Cheap to copy when ok.
class Status {
 public:
  Status() = default;
  explicit Status(StatusCode code, std::string message = {})
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status{}; }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// "OK" or "<code>: <message>".
  [[nodiscard]] std::string to_string() const;

  /// True when the code matches and the message contains
  /// `message_substr` (empty substring matches any message). Use this —
  /// not operator== — to assert on diagnostics: equality deliberately
  /// ignores messages, so `status == Status{code, "text"}` passes no
  /// matter what the message says.
  [[nodiscard]] bool Matches(StatusCode code,
                             std::string_view message_substr = {}) const {
    return code_ == code &&
           message_.find(message_substr) != std::string::npos;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result<T>: either a value or a non-ok Status. Accessing the value of a
/// failed result is a programming error and asserts/throws.
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    if (std::get<Status>(state_).is_ok()) {
      throw std::logic_error("Result constructed from OK status without value");
    }
  }
  Result(StatusCode code, std::string message = {})
      : Result(Status{code, std::move(message)}) {}

  [[nodiscard]] bool is_ok() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return is_ok(); }

  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(state_);
  }
  [[nodiscard]] StatusCode code() const noexcept {
    return is_ok() ? StatusCode::kOk : std::get<Status>(state_).code();
  }

  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(state_));
  }

  /// Value if ok, otherwise the provided fallback.
  [[nodiscard]] T value_or(T fallback) const& {
    return is_ok() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!is_ok()) {
      throw std::logic_error("Result::value() on error: " +
                             std::get<Status>(state_).to_string());
    }
  }

  std::variant<T, Status> state_;
};

}  // namespace cleaks
