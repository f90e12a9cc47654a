// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Minimal Status / Result types for recoverable errors (parse failures,
// unsupported queries, malformed input). Modeled on the Status idiom used
// by Arrow and RocksDB: cheap to copy when OK, carries a code and message
// otherwise.

#ifndef XMLSEL_XMLSEL_STATUS_H_
#define XMLSEL_XMLSEL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "xmlsel/common.h"

namespace xmlsel {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // malformed input (bad XML, bad query syntax)
  kUnsupported,       // valid input outside the implemented fragment
  kNotFound,          // e.g. bindd path does not resolve to a node
  kCorruption,        // packed synopsis failed to decode
  kInternal,          // invariant violation surfaced as an error
};

/// Returns a short human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation that can fail in a recoverable way.
/// [[nodiscard]] at class level: any call returning a Status whose result
/// is dropped on the floor is a compile warning (-Werror in the Warnings
/// build) — an ignored error is a bug, not a style choice. Intentional
/// discards must say so: assign to a named variable or use
/// XMLSEL_RETURN_IF_ERROR.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value or an error Status. `ok()` must be checked before `value()`.
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}            // NOLINT(runtime/explicit)
  Result(Status status) : v_(std::move(status)) {      // NOLINT(runtime/explicit)
    XMLSEL_CHECK(!std::get<Status>(v_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const T& value() const& {
    XMLSEL_CHECK(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    XMLSEL_CHECK(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    XMLSEL_CHECK(ok());
    return std::get<T>(std::move(v_));
  }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(v_);
  }

 private:
  std::variant<T, Status> v_;
};

/// Propagates a non-OK status out of the enclosing function.
#define XMLSEL_RETURN_IF_ERROR(expr)        \
  do {                                      \
    ::xmlsel::Status _st = (expr);          \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace xmlsel

#endif  // XMLSEL_XMLSEL_STATUS_H_
