// Fig. 18 (chaos): serving through a spot preemption storm, chaos-blind
// vs chaos-aware, as one continuous online co-simulation per controller.
// The fig17 fleet (RM2, WND, double-traffic NCF; one $8/hr MARGINAL
// envelope) rents every model from a preemptible market — DISCOUNT x the
// on-demand price, Poisson reclamations at RECLAIM_PER_HOUR per model,
// NOTICE_S of warning before each hard kill. The identical storm (one
// seeded SPOT_PREEMPTION timeline) hits each run:
//
//   * FROZEN    — no control loop: losses accumulate, nothing replaces
//                 them;
//   * PERIODIC  — the fixed timer: replacements only appear when the
//                 timer happens to fire (the chaos-blind baseline);
//   * COMPOSITE — QOS + FAILOVER: every reclamation notice triggers a
//                 kRespread, so the replacement's launch lag overlaps the
//                 victim's notice window; accumulated losses escalate to
//                 a per-model kFailover replan.
//
// Cost is *effective*: billed instance-seconds at on-demand prices times
// the spot discount (cloud::SpotCost) — the preemptible bargain both
// sides of the comparison enjoy equally — divided over *goodput*, the
// queries completed inside QoS-compliant windows. A chaos-blind fleet is
// always cheaper per raw query (running degraded rents less), but the
// queries it delivers late are the preemption damage; goodput prices
// that damage in. Gate (exit 1 on regression): COMPOSITE must show fewer
// p99-violation windows than PERIODIC and pay no more effective dollars
// per 1k QoS-compliant queries.
//
// A second phase replays the storm *correlated*: the fleet spread over 4
// failure domains, every reclamation domain-wide (correlation = 1).
// BASELINE (PR 6's reactive FAILOVER) vs N-1+BORROW (chaos-aware N-1
// planning + storm-time budget borrowing, DESIGN.md Sec. 11). Gate:
// N-1+BORROW must show fewer p99-violation windows at no more effective
// dollars per 1k QoS-compliant completions, with borrowed == repaid
// bit-for-bit.
//
//   ./fig18_chaos [DURATION_S] [BASE_RATE_QPS] [PERIOD_S] [RECLAIM_PER_HOUR]
//   ./fig18_chaos 60 30 40 720
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/injector.h"
#include "core/fleet.h"

int main(int argc, char** argv) {
  using namespace kairos;
  const double duration = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double base_rate = argc > 2 ? std::atof(argv[2]) : 30.0;
  const double period = argc > 3 ? std::atof(argv[3]) : 2.0 * duration / 3.0;
  const double reclaim_per_hour = argc > 4 ? std::atof(argv[4]) : 720.0;
  const double window = duration / 20.0;
  const double notice_s = 1.5;
  const double discount = 0.35;

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
    std::size_t goodput = 0;  ///< completions inside QoS-compliant windows
    double usd_per_1k = 0.0;  ///< effective dollars per 1k goodput
  };
  std::vector<Run> runs = {{"FROZEN", "", {}, 0, 0, 0.0},
                           {"PERIODIC", "PERIODIC", {}, 0, 0, 0.0},
                           {"COMPOSITE", "COMPOSITE", {}, 0, 0, 0.0}};
  for (Run& run : runs) {
    core::FleetServeOptions serve;
    serve.duration_s = duration;
    serve.base_rate_qps = base_rate;
    serve.window_s = window;
    serve.launch_lag_s = 1.0;
    serve.controller = run.controller;
    if (run.controller == "PERIODIC") {
      serve.controller_knobs = {{"period_s", period}};
    }
    if (run.controller == "COMPOSITE") {
      // QOS with fig17's hysteresis margin, plus the chaos-aware FAILOVER
      // child; BACKLOG / DRIFT add nothing to a capacity-loss story.
      serve.controller_knobs = {{"failover", 1.0},
                                {"p99_scale", 1.1},
                                {"backlog", 0.0},
                                {"drift", 0.0}};
    }
    // The same seeded storm for every run: the fleet seed is fixed, so
    // the SPOT_PREEMPTION timelines are identical across controllers.
    serve.chaos = "SPOT_PREEMPTION";
    serve.chaos_knobs = {{"rate_per_hour", reclaim_per_hour},
                         {"notice_s", notice_s},
                         {"discount", discount}};
    run.result = bench::OrDie(fleet.ServeAll(plan, serve));
    for (const core::FleetModelServe& model : run.result.models) {
      const double qos_ms =
          bench::OrDie(fleet.Session(model.model))->qos_ms();
      for (const serving::WindowedMetrics& w : model.windows) {
        if (w.served > 0 && w.p99_ms > qos_ms) {
          ++run.violation_windows;
        } else {
          run.goodput += w.served;
        }
      }
    }
    run.usd_per_1k = run.goodput > 0
                         ? run.result.effective_cost_usd /
                               (static_cast<double>(run.goodput) / 1000.0)
                         : 0.0;
  }

  TextTable table({"controller", "p99-violation windows", "lost", "notices",
                   "respreads", "failovers", "goodput",
                   "effective $", "on-demand $", "$/1k goodput"});
  for (const Run& run : runs) {
    table.AddRow({run.label, std::to_string(run.violation_windows),
                  std::to_string(run.result.instances_lost),
                  std::to_string(run.result.preemption_notices),
                  std::to_string(run.result.respreads),
                  std::to_string(run.result.failovers),
                  std::to_string(run.goodput),
                  TextTable::Num(run.result.effective_cost_usd, 4),
                  TextTable::Num(run.result.ondemand_cost_usd, 4),
                  TextTable::Num(run.usd_per_1k, 4)});
  }
  table.Print(std::cout,
              "Fig. 18: serving through a spot preemption storm (" +
                  TextTable::Num(reclaim_per_hour, 0) +
                  " reclamations/hr/model, " + TextTable::Num(notice_s, 1) +
                  "s notice, " + TextTable::Num(100.0 * discount, 0) +
                  "% of on-demand price; " + TextTable::Num(window, 1) +
                  "s windows, $" +
                  TextTable::Num(fleet_options.budget_per_hour, 0) +
                  "/hr envelope; PERIODIC fires at " +
                  TextTable::Num(period, 0) + "s)");

  std::cout << "chaos log (COMPOSITE run):\n";
  for (const core::FleetChaosEvent& event : runs[2].result.chaos_log) {
    std::cout << "  [" << TextTable::Num(event.time, 2) << "s] "
              << chaos::ChaosEventName(event.kind) << " " << event.model
              << ": " << event.detail << "\n";
  }
  std::cout << "control log (COMPOSITE run):\n";
  for (const core::FleetControlEvent& event : runs[2].result.control_log) {
    std::cout << "  [" << TextTable::Num(event.time, 2) << "s] "
              << control::ControlActionName(event.kind)
              << (event.model.empty() ? "" : " " + event.model) << ": "
              << event.reason << "\n";
  }

  // The gate: chaos-aware control must beat the chaos-blind timer on QoS
  // under the identical storm, without paying more effective dollars for
  // the queries it served. The spot discount itself must also be real:
  // effective spend strictly below on-demand spend.
  const Run& periodic = runs[1];
  const Run& composite = runs[2];
  int failed = 0;
  if (composite.violation_windows >= periodic.violation_windows) {
    std::cerr << "FAIL: COMPOSITE has " << composite.violation_windows
              << " p99-violation windows, PERIODIC has "
              << periodic.violation_windows << " (must be fewer)\n";
    failed = 1;
  }
  if (composite.usd_per_1k > periodic.usd_per_1k + 1e-9) {
    std::cerr << "FAIL: COMPOSITE pays $" << composite.usd_per_1k
              << " per 1k QoS-compliant queries, PERIODIC $"
              << periodic.usd_per_1k << " (must not pay more)\n";
    failed = 1;
  }
  for (const Run& run : runs) {
    if (run.result.effective_cost_usd >=
        run.result.ondemand_cost_usd - 1e-12) {
      std::cerr << "FAIL: " << run.label
                << " shows no spot discount (effective $"
                << run.result.effective_cost_usd << " vs on-demand $"
                << run.result.ondemand_cost_usd << ")\n";
      failed = 1;
    }
  }
  if (failed == 0) {
    std::cout << "chaos-aware control beats the chaos-blind timer: "
              << "COMPOSITE " << composite.violation_windows
              << " p99-violation windows at $"
              << TextTable::Num(composite.usd_per_1k, 4)
              << "/1k goodput vs PERIODIC " << periodic.violation_windows
              << " windows at $" << TextTable::Num(periodic.usd_per_1k, 4)
              << "/1k\n";
  }

  // ---- Phase 2: the correlated storm (DESIGN.md Sec. 11). The same
  // fleet spread over 4 failure domains, every reclamation now
  // domain-wide (correlation = 1): one fault takes a whole rack of a
  // model at once. BASELINE is PR 6's reactive FAILOVER; N-1+BORROW adds
  // chaos-aware N-1 planning (pad the deployment so losing the largest
  // domain leaves the QoS core) and budget borrowing during the storm
  // (repaid at recovery; conservation asserted below). The storm
  // timeline is seeded identically for both runs.
  constexpr std::size_t kDomains = 4;
  struct DomainRun {
    std::string label;
    bool n_minus_one = false;
    double borrow_fraction = 0.0;
    double cooldown_windows = 0.0;
    core::FleetServeResult result;
    std::size_t violation_windows = 0;
    std::size_t goodput = 0;
    double usd_per_1k = 0.0;
  };
  std::vector<DomainRun> domain_runs = {
      {"BASELINE", false, 0.0, 0.0, {}, 0, 0, 0.0},
      {"N-1+BORROW", true, 0.4, 2.0, {}, 0, 0, 0.0}};
  for (DomainRun& run : domain_runs) {
    auto domain_fleet = bench::OrDie(core::Fleet::Create(
        catalog,
        {core::FleetModelOptions{.model = "RM2",
                                 .failure_domains = kDomains,
                                 .plan_n_minus_one = run.n_minus_one},
         core::FleetModelOptions{.model = "WND",
                                 .failure_domains = kDomains,
                                 .plan_n_minus_one = run.n_minus_one},
         core::FleetModelOptions{.model = "NCF",
                                 .arrival_scale = 2.0,
                                 .failure_domains = kDomains,
                                 .plan_n_minus_one = run.n_minus_one}},
        fleet_options));
    domain_fleet.ObserveMixAll(workload::LogNormalBatches::Production());
    const auto domain_plan = bench::OrDie(domain_fleet.PlanAll());

    core::FleetServeOptions serve;
    serve.duration_s = duration;
    serve.base_rate_qps = base_rate;
    serve.window_s = window;
    serve.launch_lag_s = 1.0;
    serve.controller = "COMPOSITE";
    serve.controller_knobs = {{"failover", 1.0},
                              {"p99_scale", 1.1},
                              {"backlog", 0.0},
                              {"drift", 0.0},
                              {"borrow_fraction", run.borrow_fraction},
                              {"cooldown_windows", run.cooldown_windows}};
    serve.chaos = "SPOT_PREEMPTION";
    serve.chaos_knobs = {{"rate_per_hour", reclaim_per_hour},
                         {"notice_s", notice_s},
                         {"discount", discount},
                         {"correlation", 1.0}};
    run.result = bench::OrDie(domain_fleet.ServeAll(domain_plan, serve));
    for (const core::FleetModelServe& model : run.result.models) {
      const double qos_ms =
          bench::OrDie(domain_fleet.Session(model.model))->qos_ms();
      for (const serving::WindowedMetrics& w : model.windows) {
        if (w.served > 0 && w.p99_ms > qos_ms) {
          ++run.violation_windows;
        } else {
          run.goodput += w.served;
        }
      }
    }
    run.usd_per_1k = run.goodput > 0
                         ? run.result.effective_cost_usd /
                               (static_cast<double>(run.goodput) / 1000.0)
                         : 0.0;
  }

  TextTable domain_table({"controller", "p99-violation windows", "lost",
                          "respreads", "failovers", "borrows", "paybacks",
                          "goodput", "effective $", "$/1k goodput"});
  for (const DomainRun& run : domain_runs) {
    domain_table.AddRow(
        {run.label, std::to_string(run.violation_windows),
         std::to_string(run.result.instances_lost),
         std::to_string(run.result.respreads),
         std::to_string(run.result.failovers),
         std::to_string(run.result.borrows),
         std::to_string(run.result.paybacks),
         std::to_string(run.goodput),
         TextTable::Num(run.result.effective_cost_usd, 4),
         TextTable::Num(run.usd_per_1k, 4)});
  }
  domain_table.Print(
      std::cout,
      "Fig. 18 (correlated): domain-wide reclamations across " +
          std::to_string(kDomains) + " failure domains (" +
          TextTable::Num(reclaim_per_hour, 0) +
          " domain outages/hr/model; N-1 planning + budget borrowing vs "
          "the reactive FAILOVER baseline)");

  // The correlated-storm gate: proactive N-1 sizing plus storm-time
  // borrowing must beat the reactive baseline on QoS windows under the
  // identical domain-correlated storm, at no more effective dollars per
  // 1k QoS-compliant completions — and every borrowed dollar must come
  // back (bitwise, not approximately).
  const DomainRun& reactive = domain_runs[0];
  const DomainRun& proactive = domain_runs[1];
  if (proactive.violation_windows >= reactive.violation_windows) {
    std::cerr << "FAIL: N-1+BORROW has " << proactive.violation_windows
              << " p99-violation windows under the correlated storm, "
              << "BASELINE has " << reactive.violation_windows
              << " (must be fewer)\n";
    failed = 1;
  }
  if (proactive.usd_per_1k > reactive.usd_per_1k + 1e-9) {
    std::cerr << "FAIL: N-1+BORROW pays $" << proactive.usd_per_1k
              << " per 1k QoS-compliant queries, BASELINE $"
              << reactive.usd_per_1k << " (must not pay more)\n";
    failed = 1;
  }
  if (proactive.result.borrows == 0) {
    std::cerr << "FAIL: the storm never exercised budget borrowing "
              << "(borrows == 0)\n";
    failed = 1;
  }
  if (proactive.result.budget_borrowed_per_hour !=
      proactive.result.budget_repaid_per_hour) {
    std::cerr << "FAIL: borrowed budget was not conserved: borrowed $"
              << proactive.result.budget_borrowed_per_hour
              << "/hr, repaid $"
              << proactive.result.budget_repaid_per_hour << "/hr\n";
    failed = 1;
  }
  if (failed == 0) {
    std::cout << "N-1 planning + borrowing survives the correlated storm: "
              << proactive.violation_windows << " p99-violation windows vs "
              << reactive.violation_windows << " reactive at $"
              << TextTable::Num(proactive.usd_per_1k, 4) << "/1k (borrowed $"
              << TextTable::Num(proactive.result.budget_borrowed_per_hour, 4)
              << "/hr, repaid in full)\n";
  }
  return failed;
}
