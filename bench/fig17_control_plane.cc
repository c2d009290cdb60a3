// Fig. 17 (control plane): closed-loop vs open-loop reaction to a load
// spike, served as one continuous online co-simulation per controller.
// The fig12 fleet (RM2, WND, double-traffic NCF; one $8/hr MARGINAL
// envelope) streams Poisson traffic on a shared window grid; RM2's
// arrival rate jumps SPIKE_SCALE x at 30% of the horizon. The identical
// arrival schedule is then served under each registered controller:
//
//   * FROZEN    — no control loop; the initial plan serves the whole run;
//   * PERIODIC  — the pre-control-plane fixed timer (one reallocation at
//                 PERIOD_S, well after the spike: the open-loop baseline);
//   * QOS       — reallocates when a model's windowed p99 violates QoS;
//   * BACKLOG   — reallocates when an engine's backlog exceeds seconds
//                 of work at the observed arrival rate;
//   * DRIFT     — watches batch-mix drift only; the spike changes rate,
//                 not mix, so it correctly does nothing here;
//   * COMPOSITE — QOS + BACKLOG + DRIFT chained.
//
// Every run spends the same global budget and the closed-loop controllers
// use no more reallocations than PERIODIC — the comparison is purely
// *when* the loop reacts. Gate (exit 1 on regression): QOS and BACKLOG
// must each show fewer p99-violation windows than PERIODIC at equal cost,
// and must not lose weighted throughput doing it.
//
//   ./fig17_control_plane [DURATION_S] [BASE_RATE_QPS] [PERIOD_S]
//   ./fig17_control_plane 60 10 40
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fleet.h"

int main(int argc, char** argv) {
  using namespace kairos;
  const double duration = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double base_rate = argc > 2 ? std::atof(argv[2]) : 10.0;
  const double period = argc > 3 ? std::atof(argv[3]) : 2.0 * duration / 3.0;
  const double window = duration / 20.0;
  const double spike_time = 0.3 * duration;
  const double spike_scale = 6.0;

  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions fleet_options;
  fleet_options.budget_per_hour = 8.0;
  fleet_options.allocator = "MARGINAL";
  auto fleet = bench::OrDie(core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{.model = "RM2"},
       core::FleetModelOptions{.model = "WND"},
       core::FleetModelOptions{.model = "NCF", .arrival_scale = 2.0}},
      fleet_options));
  fleet.ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = bench::OrDie(fleet.PlanAll());

  struct Run {
    std::string label;
    std::string controller;  ///< "" = frozen
    core::FleetServeResult result;
    std::size_t violation_windows = 0;
  };
  std::vector<Run> runs = {{"FROZEN", "", {}, 0},   {"PERIODIC", "PERIODIC", {}, 0},
                           {"QOS", "QOS", {}, 0},   {"BACKLOG", "BACKLOG", {}, 0},
                           {"DRIFT", "DRIFT", {}, 0},
                           {"COMPOSITE", "COMPOSITE", {}, 0}};
  for (Run& run : runs) {
    core::FleetServeOptions serve;
    serve.duration_s = duration;
    serve.base_rate_qps = base_rate;
    serve.window_s = window;
    serve.launch_lag_s = 1.0;
    serve.shifts = {core::FleetLoadShift{spike_time, "RM2", spike_scale}};
    serve.controller = run.controller;
    if (run.controller == "PERIODIC") {
      serve.controller_knobs = {{"period_s", period}};
    }
    if (run.controller == "QOS" || run.controller == "COMPOSITE") {
      // A 10% hysteresis margin over the QoS bound: the initial plan runs
      // RM2 within ~1% of its target, so the default hair-trigger would
      // fire on a marginal pre-spike transient and win the comparison by
      // accident. With the margin the fire lands *after* the spike, and
      // the gate measures what it claims to: closed-loop reaction time.
      serve.controller_knobs = {{"p99_scale", 1.1}};
    }
    run.result = bench::OrDie(fleet.ServeAll(plan, serve));
    for (const core::FleetModelServe& model : run.result.models) {
      const double qos_ms =
          bench::OrDie(fleet.Session(model.model))->qos_ms();
      for (const serving::WindowedMetrics& w : model.windows) {
        if (w.served > 0 && w.p99_ms > qos_ms) ++run.violation_windows;
      }
    }
  }

  TextTable table({"controller", "p99-violation windows", "reallocations",
                   "monitor resets", "weighted QPS", "first action (s)"});
  for (const Run& run : runs) {
    table.AddRow({run.label, std::to_string(run.violation_windows),
                  std::to_string(run.result.reallocations),
                  std::to_string(run.result.monitor_resets),
                  TextTable::Num(run.result.total_weighted_qps, 2),
                  run.result.control_log.empty()
                      ? "-"
                      : TextTable::Num(run.result.control_log.front().time,
                                       1)});
  }
  table.Print(std::cout,
              "Fig. 17: control-plane comparison through a live " +
                  TextTable::Num(spike_scale, 0) + "x RM2 arrival jump at t=" +
                  TextTable::Num(spike_time, 0) + "s (" +
                  TextTable::Num(window, 1) + "s windows, $" +
                  TextTable::Num(fleet_options.budget_per_hour, 0) +
                  "/hr envelope; PERIODIC fires at " +
                  TextTable::Num(period, 0) + "s)");

  std::cout << "control log:\n";
  for (const Run& run : runs) {
    for (const core::FleetControlEvent& event : run.result.control_log) {
      std::cout << "  " << run.label << " [" << TextTable::Num(event.time, 1)
                << "s] " << control::ControlActionName(event.kind)
                << (event.model.empty() ? "" : " " + event.model) << ": "
                << event.reason << "\n";
    }
  }

  // The gate: the closed loops must beat the open-loop timer on QoS at
  // equal cost — same budget envelope (shares never exceed it; asserted
  // by the allocator invariants), no more reallocations, no lost
  // throughput, fewer p99-violation windows.
  const Run& periodic = runs[1];
  int failed = 0;
  for (const std::size_t idx : {2u, 3u}) {  // QOS, BACKLOG
    const Run& closed = runs[idx];
    if (closed.violation_windows >= periodic.violation_windows) {
      std::cerr << "FAIL: " << closed.label << " has "
                << closed.violation_windows
                << " p99-violation windows, PERIODIC has "
                << periodic.violation_windows << " (must be fewer)\n";
      failed = 1;
    }
    if (closed.result.reallocations > periodic.result.reallocations) {
      std::cerr << "FAIL: " << closed.label << " used "
                << closed.result.reallocations << " reallocations, PERIODIC "
                << periodic.result.reallocations << " (must not use more)\n";
      failed = 1;
    }
    if (closed.result.total_weighted_qps + 1e-9 <
        periodic.result.total_weighted_qps) {
      std::cerr << "FAIL: " << closed.label << " lost weighted QPS vs "
                << "PERIODIC\n";
      failed = 1;
    }
  }
  if (failed == 0) {
    std::cout << "closed-loop controllers beat the open-loop timer: QOS "
              << runs[2].violation_windows << " and BACKLOG "
              << runs[3].violation_windows
              << " p99-violation windows vs PERIODIC "
              << periodic.violation_windows << " at equal cost\n";
  }
  return failed;
}
