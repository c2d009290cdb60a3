// Fig. 16: workload and measurement robustness — (a) Gaussian-distributed
// batch sizes instead of the production log-normal; (b) 5% multiplicative
// Gaussian noise injected into latency *predictions* (cloud performance
// variability). Kairos should keep a clear advantage over the scaled
// homogeneous baseline in both settings.
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();

  // --- (a) Gaussian batch-size distribution. ---
  {
    const auto gaussian = workload::GaussianBatches::Default();
    TextTable table({"model", "Kairos config", "Kairos QPS",
                     "homogeneous QPS (scaled)", "ratio"});
    for (const std::string& model : bench::Models()) {
      core::Kairos kairos = bench::OrDie(core::Kairos::Create(catalog, model));
      kairos.ObserveMix(gaussian);
      const core::Plan plan = bench::OrDie(kairos.PlanConfiguration());
      const bench::ModelBench mb(catalog, model);
      const double guess = plan.ranked.front().upper_bound * 0.5;
      const double hetero =
          mb.Throughput(plan.config, "KAIROS", gaussian, guess);
      const double homo = mb.ScaledHomogeneous(gaussian, guess);
      table.AddRow({model, plan.config.ToString(), TextTable::Num(hetero),
                    TextTable::Num(homo),
                    TextTable::Num(hetero / homo, 2) + "x"});
    }
    table.Print(std::cout, "Fig. 16a: Gaussian batch-size distribution");
  }

  // --- (b) 5% latency-prediction noise. ---
  {
    const auto mix = workload::LogNormalBatches::Production();
    serving::PredictorOptions noisy;
    noisy.noise_sigma = 0.05;
    TextTable table({"model", "Kairos config", "QPS (exact pred.)",
                     "QPS (5% noise)", "noise penalty"});
    for (const std::string& model : bench::Models()) {
      core::Kairos kairos = bench::OrDie(core::Kairos::Create(catalog, model));
      kairos.ObserveMix(mix);
      const core::Plan plan = bench::OrDie(kairos.PlanConfiguration());
      const bench::ModelBench mb(catalog, model);
      const double guess = plan.ranked.front().upper_bound * 0.5;
      const double clean = mb.Throughput(plan.config, "KAIROS", mix, guess);
      const double noisy_qps =
          mb.Throughput(plan.config, "KAIROS", mix, guess, 200, noisy);
      table.AddRow({model, plan.config.ToString(), TextTable::Num(clean),
                    TextTable::Num(noisy_qps),
                    TextTable::Num((1.0 - noisy_qps / clean) * 100.0, 1) +
                        "%"});
    }
    table.Print(std::cout,
                "Fig. 16b: 5% Gaussian noise in latency prediction");
  }
  return 0;
}
