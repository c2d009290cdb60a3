// Telemetry tour: run a small three-model fleet co-simulation with the
// telemetry plane attached, then export what it saw — a Chrome trace-event
// JSON you can drop into https://ui.perfetto.dev (or chrome://tracing) and
// a Prometheus text exposition of the final barrier snapshot.
//
// The run exercises every instrumented layer: engine submit/advance spans
// per model shard, window/realloc/controller spans on the fleet track,
// chaos fault instants, and the counters/gauges snapshotted at every
// barrier into FleetServeResult::telemetry_samples.
//
//   ./telemetry_tour [TRACE_JSON] [METRICS_PROM]
//   ./telemetry_tour trace.json metrics.prom
#include <iostream>
#include <string>

#include "core/fleet.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "trace.json";
  const std::string prom_path = argc > 2 ? argv[2] : "metrics.prom";

  // 1. A small fleet under one $6/hr budget: RM2, WND, and a
  //    double-traffic NCF, MARGINAL water-filling split.
  const kairos::cloud::Catalog catalog = kairos::cloud::Catalog::PaperPool();
  kairos::core::FleetOptions options;
  options.budget_per_hour = 6.0;
  options.allocator = "MARGINAL";
  auto fleet = kairos::core::Fleet::Create(
      catalog,
      {kairos::core::FleetModelOptions{.model = "RM2"},
       kairos::core::FleetModelOptions{.model = "WND"},
       kairos::core::FleetModelOptions{.model = "NCF", .arrival_scale = 2.0}},
      options);
  if (!fleet.ok()) {
    std::cerr << fleet.status().ToString() << "\n";
    return 1;
  }
  fleet->ObserveMixAll(kairos::workload::LogNormalBatches::Production());
  auto plan = fleet->PlanAll();
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 1;
  }

  // 2. The telemetry plane: shard names must match the plan's model
  //    order; a "fleet" track is appended for the driving thread.
  auto telemetry = kairos::telemetry::Telemetry::Create({"RM2", "WND", "NCF"});
  if (!telemetry.ok()) {
    std::cerr << telemetry.status().ToString() << "\n";
    return 1;
  }

  // 3. A busy 20-second run: periodic reallocation, a mid-run load surge
  //    on RM2, and a spot-preemption chaos injector — so the trace has
  //    realloc spans, controller decisions and fault instants to look at.
  kairos::core::FleetServeOptions serve;
  serve.duration_s = 20.0;
  serve.base_rate_qps = 25.0;
  serve.window_s = 2.5;
  serve.controller = "PERIODIC";
  serve.controller_knobs = {{"period_s", 7.5}};
  serve.shifts = {kairos::core::FleetLoadShift{8.0, "RM2", 4.0}};
  serve.chaos = "SPOT_PREEMPTION";
  serve.telemetry = telemetry->get();
  auto result = fleet->ServeAll(*plan, serve);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }

  std::cout << "served " << result->total_qps << " qps total across "
            << result->models.size() << " models; "
            << result->telemetry_samples.size() << " barrier samples, "
            << (*telemetry)->tracer().AllEvents().size()
            << " trace events recorded\n";

  // 4. Export. The Chrome trace gets one track per model shard plus the
  //    fleet track; the Prometheus text is the final barrier snapshot.
  const auto write_trace =
      kairos::telemetry::WriteChromeTrace((*telemetry)->tracer(), trace_path);
  if (!write_trace.ok()) {
    std::cerr << write_trace.ToString() << "\n";
    return 1;
  }
  const auto write_prom = kairos::telemetry::WritePrometheus(
      result->telemetry_samples.back().metrics, prom_path);
  if (!write_prom.ok()) {
    std::cerr << write_prom.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << trace_path << " (load it at ui.perfetto.dev) and "
            << prom_path << "\n";

  // 5. A taste of the numbers without leaving the terminal.
  const auto& last = result->telemetry_samples.back().metrics;
  for (const auto& metric : last.metrics) {
    if (metric.name == "kairos_queries_served_total" ||
        metric.name == "kairos_queries_offered_total" ||
        metric.name == "kairos_chaos_faults_total" ||
        metric.name == "kairos_control_actions_total") {
      std::cout << "  " << metric.name << " = " << metric.value << "\n";
    }
  }
  return 0;
}
