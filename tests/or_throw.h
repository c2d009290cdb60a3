// Unwrapping a StatusOr inside a test body. StatusOr::value() aborts the
// whole binary on an error; OrThrow fails only the calling test.
#pragma once

#include <stdexcept>
#include <utility>

#include "common/status.h"

namespace kairos {

/// The value held by `result`. A refusal is thrown as std::runtime_error
/// carrying the status, which gtest reports as a failure of the running
/// test.
template <typename T>
T OrThrow(StatusOr<T> result) {
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return *std::move(result);
}

}  // namespace kairos
