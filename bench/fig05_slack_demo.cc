// Fig. 5: the two-instance slack illustration. Four queries arrive in
// order; naive FCFS burns the fast instance on the small leader and loses
// a query to QoS, while Kairos's speedup-aware matching serves all four on
// identical hardware — a 33% throughput gap from distribution alone.
#include <iostream>

#include "bench/bench_util.h"
#include "policy/registry.h"
#include "serving/engine.h"

int main() {
  using namespace kairos;
  cloud::Catalog catalog;
  catalog.Add({"gpu", "GPU", cloud::InstanceClass::kGpuAccelerated, 1.0,
               true});
  catalog.Add({"cpu", "CPU", cloud::InstanceClass::kGeneralPurposeCpu, 0.25,
               false});
  const latency::LatencyModel truth({{40.0, 0.26}, {55.0, 0.95}});

  serving::SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = cloud::Config({1, 1});
  spec.truth = &truth;
  spec.qos_ms = 350.0;

  const workload::Trace trace({workload::Query{1, 100, 0.000},
                               workload::Query{2, 900, 0.010},
                               workload::Query{3, 100, 0.020},
                               workload::Query{4, 100, 0.030}});

  serving::EngineOptions keep;
  keep.run.abort_violation_fraction = 0.0;
  keep.run.keep_records = true;

  for (const auto& [label, scheme] :
       {std::pair<std::string, std::string>{"Naive FCFS", "RIBBON"},
        {"KAIROS", "KAIROS"}}) {
    const auto engine = bench::OrDie(serving::Engine::Create(
        spec, bench::OrDie(PolicyRegistry::Global().Build(scheme)), {}, keep));
    for (const workload::Query& q : trace.queries()) {
      bench::OrDie(engine->Submit(q));
    }
    engine->Drain();
    const serving::RunResult run = engine->Totals();
    TextTable table({"query", "batch", "served on", "latency (ms)",
                     "meets QoS (350 ms)"});
    for (const serving::ServedRecord& rec : run.records) {
      table.AddRow({std::to_string(rec.id), std::to_string(rec.batch),
                    catalog[rec.type].short_name,
                    TextTable::Num(rec.LatencyMs(), 1),
                    rec.LatencyMs() <= spec.qos_ms ? "yes" : "NO (violation)"});
    }
    table.Print(std::cout, "Fig. 5 — " + label + ": " +
                               std::to_string(run.served - run.violations) +
                               "/4 queries within QoS");
  }
  return 0;
}
