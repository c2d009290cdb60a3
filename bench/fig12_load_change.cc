// Fig. 12: reaction to a workload change — served as *one continuous
// online simulation*, not stitched batch runs. A 3-model fleet (RM2, WND,
// NCF) streams queries on one shared event loop (Fleet::ServeAll); halfway
// through, RM2's arrival rate jumps by SHIFT_SCALE (the engine stretches
// no trace — Engine::SetArrivalScale rescales the live Poisson source).
// Two runs of the identical arrival schedule are compared:
//
//   * frozen   — the initial MARGINAL allocation serves the whole run;
//   * adaptive — every REALLOC_PERIOD_S the allocator re-splits the
//                budget on *observed* per-model arrival rates and the
//                live engines are reconfigured (launch lag modeled).
//
// The windowed table shows the transient: after the shift the frozen RM2
// flatlines at its planned capacity with an exploding p99, while the
// adaptive run grows RM2's share within a couple of windows and drains
// the backlog. The adaptive total weighted QPS must come out >= frozen.
//
//   ./fig12_load_change [DURATION_S] [BASE_RATE_QPS] [REALLOC_PERIOD_S]
//   ./fig12_load_change 60 18 10
#include <cstdlib>
#include <iostream>

#include "bench/bench_util.h"
#include "core/fleet.h"

int main(int argc, char** argv) {
  using namespace kairos;
  const double duration = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double base_rate = argc > 2 ? std::atof(argv[2]) : 18.0;
  const double period = argc > 3 ? std::atof(argv[3]) : 10.0;
  const double shift_scale = 5.0;
  const double shift_time = duration / 2.0;

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

  core::FleetServeOptions serve;
  serve.duration_s = duration;
  serve.base_rate_qps = base_rate;
  serve.window_s = duration / 12.0;
  serve.launch_lag_s = 1.0;
  serve.shifts = {core::FleetLoadShift{shift_time, "RM2", shift_scale}};

  const auto frozen = bench::OrDie(fleet.ServeAll(plan, serve));
  serve.controller = "PERIODIC";
  serve.controller_knobs = {{"period_s", period}};
  const auto adaptive = bench::OrDie(fleet.ServeAll(plan, serve));

  // Same shared-clock arrival schedule in both runs; only service differs.
  TextTable table({"window", "t(s)", "RM2 offered", "frozen QPS",
                   "frozen p99(ms)", "adaptive QPS", "adaptive p99(ms)"});
  const auto& fr = frozen.models[0];
  const auto& ad = adaptive.models[0];
  for (std::size_t w = 0; w < fr.windows.size(); ++w) {
    const auto& f = fr.windows[w];
    const auto& a = ad.windows[w];
    const bool after = f.start >= shift_time;
    table.AddRow({std::string(after ? "post " : "pre ") + std::to_string(w),
                  TextTable::Num(f.end, 0), TextTable::Num(f.offered_qps, 1),
                  TextTable::Num(f.qps, 1), TextTable::Num(f.p99_ms, 1),
                  TextTable::Num(a.qps, 1), TextTable::Num(a.p99_ms, 1)});
  }
  table.Print(std::cout,
              "Fig. 12: RM2 windowed service through a live " +
                  TextTable::Num(shift_scale, 0) +
                  "x arrival jump at t=" + TextTable::Num(shift_time, 0) +
                  "s (one continuous co-simulation; frozen vs. adaptive "
                  "allocation)");

  TextTable totals({"model", "offered", "frozen QPS", "adaptive QPS",
                    "final share ($/hr)"});
  for (std::size_t j = 0; j < frozen.models.size(); ++j) {
    totals.AddRow({frozen.models[j].model,
                   std::to_string(frozen.models[j].totals.offered),
                   TextTable::Num(frozen.models[j].qps, 1),
                   TextTable::Num(adaptive.models[j].qps, 1),
                   TextTable::Num(adaptive.final_shares_per_hour[j], 2)});
  }
  totals.Print(std::cout, "Per-model totals over " +
                              TextTable::Num(duration, 0) + "s");

  std::cout << "total weighted QPS: frozen "
            << TextTable::Num(frozen.total_weighted_qps) << ", adaptive "
            << TextTable::Num(adaptive.total_weighted_qps) << " ("
            << adaptive.reallocations
            << " reallocations; adaptive/frozen = "
            << TextTable::Num(adaptive.total_weighted_qps /
                                  frozen.total_weighted_qps,
                              3)
            << ", must be >= 1)\n";
  if (adaptive.total_weighted_qps + 1e-9 < frozen.total_weighted_qps) {
    std::cerr << "FAIL: adaptive reallocation lost throughput vs. the "
                 "frozen allocation\n";
    return 1;
  }
  return 0;
}
