// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "xmlsel/status.h"

namespace xmlsel {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeName(code_);
  s += ": ";
  s += message_;
  return s;
}

}  // namespace xmlsel
