// Batch serving on the engine, shared by the test suites: submit a whole
// trace upfront, then drain. This is what each rate trial of
// serving::EvaluateConfig does on its own fresh engine.
#pragma once

#include <gtest/gtest.h>

#include "serving/engine.h"
#include "workload/trace.h"

namespace kairos::serving {

/// Submits every query of `trace` to `engine` in trace order, drains it,
/// and returns the cumulative totals. A rejected submission fails the
/// calling test.
inline RunResult ServeTrace(Engine& engine, const workload::Trace& trace) {
  for (const workload::Query& q : trace.queries()) {
    const Status status = engine.Submit(q);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  engine.Drain();
  return engine.Totals();
}

}  // namespace kairos::serving
