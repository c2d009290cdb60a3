// Fig. 9: Kairos and Kairos+ against the state of the art. Following the
// paper's deliberately conservative protocol (Sec. 8.2) — and going one
// step further:
//  * RIBBON / DRS / CLKWRK are each handed the configuration that maximizes
//    *their own* throughput, found by offline search over an oracle-ranked
//    shortlist, for free (their exploration overhead is ignored here —
//    Fig. 10 charges it). DRS additionally gets its threshold tuned by hill
//    climbing, for free;
//  * KAIROS uses its own one-shot planned configuration (no evaluation);
//  * KAIROS+ runs Algorithm 1 with real evaluations;
//  * ORCL is the clairvoyant reference at the oracle-optimal config.
// Throughput is normalized to RIBBON per model, as in the figure.
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto mix = workload::LogNormalBatches::Production();

  TextTable table({"model", "RIBBON", "DRS", "CLKWRK", "KAIROS", "KAIROS+",
                   "ORCL"});
  TextTable abs_table({"model", "scheme", "config", "QPS"});
  for (const std::string& model : bench::Models()) {
    const bench::ModelBench mb(catalog, model);
    core::Kairos kairos = bench::OrDie(core::Kairos::Create(catalog, model));
    kairos.ObserveMix(mix);
    const core::Plan plan = bench::OrDie(kairos.PlanConfiguration());
    const double guess = plan.ranked.front().upper_bound * 0.5;

    const auto [ribbon_cfg, ribbon] =
        mb.BestConfigForScheme("RIBBON", mix, guess);
    const auto [drs_cfg, drs] = mb.BestConfigForScheme("DRS", mix, guess);
    const auto [clk_cfg, clkwrk] =
        mb.BestConfigForScheme("CLKWRK", mix, guess);
    const double kairos_qps =
        mb.Throughput(plan.config, "KAIROS", mix, guess);

    // Kairos+ with real evaluations over the UB-ranked space.
    const search::EvalFn eval = [&](const cloud::Config& c) {
      return mb.Throughput(c, "KAIROS", mix, guess);
    };
    const auto plus = bench::OrDie(kairos.PlanWithEvaluations(eval));

    // Oracle at its own optimal configuration.
    const auto oracle_search = oracle::OracleSearch(
        catalog, mb.Space(), mb.truth, mb.qos_ms, mix,
        ScaledCount(3000, 800), 55);
    const double orcl = oracle_search.best_qps;

    auto norm = [&](double v) { return TextTable::Num(v / ribbon, 2); };
    table.AddRow({model, norm(ribbon), norm(drs), norm(clkwrk),
                  norm(kairos_qps), norm(plus.best_qps), norm(orcl)});
    abs_table.AddRow({model, "RIBBON@own-best", ribbon_cfg.ToString(),
                      TextTable::Num(ribbon)});
    abs_table.AddRow({model, "DRS@own-best", drs_cfg.ToString(),
                      TextTable::Num(drs)});
    abs_table.AddRow({model, "CLKWRK@own-best", clk_cfg.ToString(),
                      TextTable::Num(clkwrk)});
    abs_table.AddRow({model, "KAIROS@planned", plan.config.ToString(),
                      TextTable::Num(kairos_qps)});
    abs_table.AddRow({model, "KAIROS+@searched", plus.best_config.ToString(),
                      TextTable::Num(plus.best_qps)});
    abs_table.AddRow({model, "ORCL@oracle-best",
                      oracle_search.best_config.ToString(),
                      TextTable::Num(orcl)});
  }
  table.Print(std::cout,
              "Fig. 9: normalized throughput vs state of the art "
              "(normalized to RIBBON)");
  abs_table.Print(std::cout, "Fig. 9 appendix: absolute QPS and configs");
  return 0;
}
