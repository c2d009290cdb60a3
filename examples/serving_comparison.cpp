// End-to-end serving scenario: deploy one heterogeneous configuration and
// serve the *same* recorded query trace under every distribution scheme,
// reporting served count, p99 latency, QoS violations, and per-type
// utilization — then show how Kairos re-plans when the workload shifts
// from the production mix to a Gaussian mix (the Fig. 12 situation).
//
// Every scheme registered in the PolicyRegistry is exercised — adding a
// new policy .cc with a registrar automatically adds a row here.
//
//   ./serving_comparison [MODEL] [RATE_QPS]
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/kairos.h"
#include "policy/registry.h"
#include "serving/engine.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace kairos;
  const std::string model = argc > 1 ? argv[1] : "RM2";
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto mix = workload::LogNormalBatches::Production();

  auto created = core::Kairos::Create(catalog, model);
  if (!created.ok()) {
    std::cerr << created.status().ToString() << "\n";
    return 1;
  }
  core::Kairos& kairos = *created;
  kairos.ObserveMix(mix);
  const auto plan = kairos.PlanConfiguration();
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 1;
  }
  const double rate =
      argc > 2 ? std::stod(argv[2]) : plan->ranked.front().upper_bound * 0.6;

  Rng rng(11);
  const workload::Trace trace = workload::Trace::Generate(
      workload::PoissonArrivals(rate), mix, 4000, rng);
  std::cout << "model " << model << ", config " << plan->config.ToString()
            << ", offered load " << TextTable::Num(rate) << " QPS, "
            << trace.size() << " queries\n";

  // A sensible DRS threshold: the largest batch any allocated auxiliary
  // type can serve within QoS (everything above must go to the base pool).
  int drs_threshold = 0;
  for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
    if (plan->config.Count(t) > 0) {
      drs_threshold = std::max(
          drs_threshold, kairos.truth().MaxQosBatch(t, kairos.qos_ms()));
    }
  }

  TextTable table({"scheme", "served", "violations", "p99 (ms)", "mean (ms)",
                   "GPU busy (%)", "CPU busy (%)"});
  for (const std::string& scheme : PolicyRegistry::Global().ListNames()) {
    policy::KnobMap knobs;
    if (scheme == "DRS") knobs["threshold"] = drs_threshold;
    auto policy = PolicyRegistry::Global().Build(scheme, knobs);
    if (!policy.ok()) {
      std::cerr << policy.status().ToString() << "\n";
      return 1;
    }
    serving::SystemSpec spec;
    spec.catalog = &catalog;
    spec.config = plan->config;
    spec.truth = &kairos.truth();
    spec.qos_ms = kairos.qos_ms();
    serving::EngineOptions options;
    options.run.abort_violation_fraction = 0.0;  // serve everything
    auto engine =
        serving::Engine::Create(spec, *std::move(policy), {}, options);
    if (!engine.ok()) {
      std::cerr << engine.status().ToString() << "\n";
      return 1;
    }
    for (const workload::Query& q : trace.queries()) {
      if (const Status status = (*engine)->Submit(q); !status.ok()) {
        std::cerr << status.ToString() << "\n";
        return 1;
      }
    }
    (*engine)->Drain();
    const serving::RunResult run = (*engine)->Totals();

    double gpu_busy = 0.0, cpu_busy = 0.0;
    double gpu_count = 0.0, cpu_count = 0.0;
    for (cloud::TypeId t = 0; t < catalog.size(); ++t) {
      const double nodes = plan->config.Count(t);
      if (nodes == 0) continue;
      if (catalog[t].is_base) {
        gpu_busy += run.per_type_busy[t];
        gpu_count += nodes;
      } else {
        cpu_busy += run.per_type_busy[t];
        cpu_count += nodes;
      }
    }
    const double horizon = run.makespan;
    auto pct = [&](double busy, double nodes) {
      return nodes > 0.0 && horizon > 0.0
                 ? TextTable::Num(100.0 * busy / (nodes * horizon), 1)
                 : std::string("-");
    };
    table.AddRow({scheme, std::to_string(run.served),
                  std::to_string(run.violations),
                  TextTable::Num(run.p99_ms, 1), TextTable::Num(run.mean_ms, 1),
                  pct(gpu_busy, gpu_count), pct(cpu_busy, cpu_count)});
  }
  table.Print(std::cout, "one trace, every registered distribution scheme");

  // Workload shift: re-plan on the new mix without any online evaluation.
  const workload::GaussianBatches shifted(850.0, 60.0);
  kairos.ResetMonitor();
  kairos.ObserveMix(shifted);
  const auto replan = kairos.PlanConfiguration();
  if (!replan.ok()) {
    std::cerr << replan.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\nworkload shifted to " << shifted.Name()
            << ": Kairos re-plans " << plan->config.ToString() << " -> "
            << replan->config.ToString() << " in one shot ("
            << "0 online evaluations)\n";
  return 0;
}
