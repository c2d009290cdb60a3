// Ablation of Kairos's distribution-mechanism design choices (DESIGN.md
// Sec. 6): the heterogeneity coefficient C_j (Definition 1), the QoS
// penalty factor (Eq. 8's 10x), and the matcher window (an implementation
// guard). Measured on RM2 at Kairos's planned configuration.
#include <iostream>

#include "bench/bench_util.h"
#include "policy/kairos_policy.h"

int main() {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const bench::ModelBench mb(catalog, "RM2");
  const auto mix = workload::LogNormalBatches::Production();

  core::Kairos kairos = bench::OrDie(core::Kairos::Create(catalog, "RM2"));
  kairos.ObserveMix(mix);
  const core::Plan plan = bench::OrDie(kairos.PlanConfiguration());
  const double guess = plan.ranked.front().upper_bound * 0.5;

  auto qps_with = [&](policy::KairosPolicyOptions opts,
                      serving::RunOptions run = {}) {
    return serving::EvaluateConfig(
               catalog, plan.config, mb.truth, mb.qos_ms,
               [opts] { return std::make_unique<policy::KairosPolicy>(opts); },
               mix, bench::StdEval(guess), serving::PredictorOptions{}, run)
        .qps;
  };

  TextTable table({"variant", "QPS", "vs default"});
  const double base_qps = qps_with(policy::KairosPolicyOptions{});
  table.AddRow({"default (C_j on, penalty 10x, xi 0.98)",
                TextTable::Num(base_qps), "1.00x"});

  auto add = [&](const std::string& label, double qps) {
    table.AddRow({label, TextTable::Num(qps),
                  TextTable::Num(qps / base_qps, 2) + "x"});
  };

  {
    policy::KairosPolicyOptions o;
    o.use_heterogeneity_coefficient = false;
    add("no heterogeneity coefficient (C_j = 1)", qps_with(o));
  }
  for (double pf : {1.5, 3.0, 30.0}) {
    policy::KairosPolicyOptions o;
    o.penalty_factor = pf;
    add("penalty factor " + TextTable::Num(pf, 1) + "x", qps_with(o));
  }
  for (double xi : {0.90, 1.00}) {
    policy::KairosPolicyOptions o;
    o.xi = xi;
    add("xi = " + TextTable::Num(xi, 2), qps_with(o));
  }
  for (std::size_t window : {std::size_t{4}, std::size_t{16}}) {
    serving::RunOptions run;
    run.matcher_window = window;
    add("matcher window " + std::to_string(window),
        qps_with(policy::KairosPolicyOptions{}, run));
  }
  table.Print(std::cout,
              "Ablation: Kairos distribution-mechanism knobs (RM2, config " +
                  plan.config.ToString() + ")");
  return 0;
}
