// Fig. 15: parameter robustness — (a) the cost budget scaled 4x ($10/hr),
// where the search space grows by an order of magnitude and non-Kairos
// schemes would struggle even more; (b) QoS targets set 20% higher. In
// both settings Kairos should keep a similar advantage over the scaled
// homogeneous baseline as at the defaults (Fig. 8).
//
// Extension: an allocator A/B over a three-model fleet at one fixed
// global budget — the STATIC weight split against the MARGINAL
// water-filling allocator (core/allocator.h). With weights mismatched to
// marginal value, STATIC strands budget on the model that cannot use it
// and MARGINAL should match or beat its total measured QPS.
#include <iostream>

#include "bench/bench_util.h"
#include "core/fleet.h"

namespace {

void RunVariant(const std::string& title, double budget, double qos_scale) {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto mix = workload::LogNormalBatches::Production();

  TextTable table({"model", "Kairos config", "Kairos QPS",
                   "homogeneous QPS (scaled)", "ratio"});
  for (const std::string& model : bench::Models()) {
    core::KairosOptions options;
    options.budget_per_hour = budget;
    options.qos_scale = qos_scale;
    core::Kairos kairos =
        bench::OrDie(core::Kairos::Create(catalog, model, options));
    kairos.ObserveMix(mix);
    const core::Plan plan = bench::OrDie(kairos.PlanConfiguration());

    const bench::ModelBench mb(catalog, model, budget, qos_scale);
    const double guess = plan.ranked.front().upper_bound * 0.5;
    const double hetero = mb.Throughput(plan.config, "KAIROS", mix, guess);
    const double homo = mb.ScaledHomogeneous(mix, guess);
    table.AddRow({model, plan.config.ToString(), TextTable::Num(hetero),
                  TextTable::Num(homo),
                  TextTable::Num(hetero / homo, 2) + "x"});
  }
  table.Print(std::cout, title);
}

void RunAllocatorAb(double budget) {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto mix = workload::LogNormalBatches::Production();

  // Weights deliberately mismatched to marginal value: NCF (tiny model,
  // 5 ms QoS, saturates early) is given half the static split.
  std::vector<core::FleetModelOptions> models;
  for (const char* name : {"RM2", "WND", "NCF"}) {
    core::FleetModelOptions m;
    m.model = name;
    m.weight = std::string(name) == "NCF" ? 2.0 : 1.0;
    m.monitor_warmup = 4000;
    models.push_back(m);
  }

  TextTable table({"allocator", "RM2 ($/hr)", "WND ($/hr)", "NCF ($/hr)",
                   "total cost ($/hr)", "total measured QPS"});
  double static_qps = 0.0;
  double marginal_qps = 0.0;
  for (const std::string& allocator : {"STATIC", "MARGINAL"}) {
    core::FleetOptions options;
    options.budget_per_hour = budget;
    options.allocator = allocator;
    auto fleet = bench::OrDie(Fleet::Create(catalog, models, options));
    fleet.ObserveMixAll(mix);
    const auto plan = bench::OrDie(fleet.PlanAll());
    const auto measured =
        bench::OrDie(fleet.MeasureAll(plan, mix, bench::StdEval(25.0)));
    table.AddRow({allocator, TextTable::Num(plan.models[0].budget_per_hour, 3),
                  TextTable::Num(plan.models[1].budget_per_hour, 3),
                  TextTable::Num(plan.models[2].budget_per_hour, 3),
                  TextTable::Num(plan.total_cost_per_hour, 3),
                  TextTable::Num(measured.total_qps)});
    (allocator == "STATIC" ? static_qps : marginal_qps) = measured.total_qps;
  }
  table.Print(std::cout, "Allocator A/B: 3-model fleet (RM2/WND/NCF 1:1:2) at $" +
                             TextTable::Num(budget, 2) + "/hr global budget");
  std::cout << "MARGINAL / STATIC total QPS: "
            << TextTable::Num(marginal_qps / static_qps, 3) << "x ("
            << (marginal_qps >= static_qps ? "MARGINAL >= STATIC"
                                           : "REGRESSION: STATIC won")
            << ")\n";
}

}  // namespace

int main() {
  RunVariant("Fig. 15a: 4x cost budget ($10/hr)", 10.0, 1.0);
  RunVariant("Fig. 15b: QoS targets scaled 1.2x (budget $2.5/hr)", 2.5, 1.2);
  RunAllocatorAb(8.0);
  return 0;
}
