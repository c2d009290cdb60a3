// Cross-module property tests: invariants that must hold for *any* policy,
// mix, and configuration — the kind of guarantees a downstream user relies
// on when plugging in their own distribution mechanism.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "core/kairos.h"
#include "oracle/oracle.h"
#include "or_throw.h"
#include "policy/policy.h"
#include "policy/registry.h"
#include "serve_trace.h"
#include "serving/engine.h"
#include "ub/upper_bound.h"
#include "workload/mixtures.h"

namespace kairos {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;

Catalog TinyCatalog() {
  Catalog c;
  c.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"aux", "A", cloud::InstanceClass::kGeneralPurposeCpu, 0.25, false});
  return c;
}

LatencyModel TinyModel() { return LatencyModel({{10.0, 0.1}, {20.0, 0.4}}); }

// A adversarial fuzz policy: proposes a random valid assignment subset each
// round (sometimes nothing, sometimes everything).
class RandomPolicy final : public policy::Policy {
 public:
  explicit RandomPolicy(std::uint64_t seed, bool early)
      : rng_(seed), early_(early) {}
  std::string Name() const override { return "FUZZ"; }
  bool EarlyBinding() const override { return early_; }

  using policy::Policy::Distribute;
  void Distribute(const policy::RoundContext& ctx,
                  std::vector<policy::Assignment>& out) override {
    out.clear();
    if (ctx.instances.empty()) return;
    std::vector<bool> instance_used(ctx.instances.size(), false);
    for (std::size_t i = 0; i < ctx.waiting.size(); ++i) {
      if (rng_.Bernoulli(0.3)) continue;  // leave some queries waiting
      const auto j = static_cast<std::size_t>(rng_.UniformInt(
          0, static_cast<std::int64_t>(ctx.instances.size()) - 1));
      if (!early_ && instance_used[j]) continue;
      instance_used[j] = true;
      out.push_back(policy::Assignment{i, j});
    }
  }

 private:
  Rng rng_;
  bool early_;
};

class FuzzPolicyInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(FuzzPolicyInvariants, SystemStateStaysConsistent) {
  const auto [seed, early] = GetParam();
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  serving::SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = Config({2, 3});
  spec.truth = &truth;
  spec.qos_ms = 100.0;

  serving::EngineOptions options;
  options.run.abort_violation_fraction = 0.0;  // serve everything
  options.run.keep_records = true;
  auto engine = OrThrow(serving::Engine::Create(
      spec, std::make_unique<RandomPolicy>(seed, early),
      serving::PredictorOptions{}, options));

  Rng rng(seed ^ 0xF00D);
  const auto mix = workload::LogNormalBatches::Production();
  const auto trace = workload::Trace::Generate(
      workload::PoissonArrivals(60.0), mix, 400, rng);
  const serving::RunResult run = serving::ServeTrace(*engine, trace);

  // Everything offered is eventually served exactly once (fuzz policy may
  // delay but arrivals keep triggering rounds; random assignment always
  // eventually dispatches with probability 1 over this horizon).
  EXPECT_EQ(run.offered, trace.size());
  EXPECT_EQ(run.served, run.latencies_ms.size());
  EXPECT_EQ(run.records.size(), run.served);

  std::size_t per_type_total = 0;
  for (std::size_t s : run.per_type_served) per_type_total += s;
  EXPECT_EQ(per_type_total, run.served);

  std::set<workload::QueryId> ids;
  for (const serving::ServedRecord& rec : run.records) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "query served twice";
    EXPECT_GE(rec.start, rec.arrival);
    // Execution time equals the truth surface exactly.
    EXPECT_NEAR(rec.finish - rec.start, truth.Latency(rec.type, rec.batch),
                1e-12);
    EXPECT_LE(rec.finish, run.makespan + 1e-12);
  }

  // Busy time per type never exceeds nodes * makespan.
  for (cloud::TypeId t = 0; t < catalog.size(); ++t) {
    EXPECT_LE(run.per_type_busy[t],
              spec.config.Count(t) * run.makespan + 1e-9);
  }

  // Violation accounting matches the recorded latencies.
  std::size_t violations = 0;
  for (double ms : run.latencies_ms) {
    if (ms > spec.qos_ms) ++violations;
  }
  EXPECT_EQ(violations, run.violations);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBinding, FuzzPolicyInvariants,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_early" : "_late");
    });

// The upper bound must dominate measured throughput for *any* batch mix,
// not just the paper's two — exercised with the bimodal mixture and a
// heavy-tailed bounded Pareto.
class UbDominatesExoticMixes : public ::testing::TestWithParam<int> {};

TEST_P(UbDominatesExoticMixes, BoundHolds) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const double qos_ms = 150.0;

  std::shared_ptr<const workload::BatchDistribution> mix;
  switch (GetParam()) {
    case 0:
      mix = std::make_shared<workload::MixtureBatches>(
          workload::MixtureBatches::BimodalDefault());
      break;
    case 1:
      mix = std::make_shared<workload::ParetoBatches>(1.1);
      break;
    default:
      mix = std::make_shared<workload::ParetoBatches>(0.6);
      break;
  }

  const auto monitor = core::MonitorFromMix(*mix, 8000, 21);
  const ub::UpperBoundEstimator est(catalog, truth, qos_ms);
  for (const Config& config : {Config({1, 2}), Config({2, 4})}) {
    const double bound = est.QpsMax(config, monitor);
    serving::EvalOptions opt;
    opt.queries = 400;
    opt.rate_guess = std::max(1.0, 0.5 * bound);
    const auto achieved = serving::EvaluateConfig(
        catalog, config, truth, qos_ms, PolicyRegistry::Global().MakeFactory("KAIROS").value(),
        *mix, opt);
    EXPECT_LE(achieved.qps, bound * 1.05)
        << mix->Name() << " " << config.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, UbDominatesExoticMixes,
                         ::testing::Values(0, 1, 2));

// Oracle throughput is monotone along the sub-configuration order — the
// foundation of Kairos+'s pruning rule, checked on random config pairs.
TEST(OracleMonotonicityProperty, SubConfigNeverBeatsSuperConfig) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    const int u = static_cast<int>(rng.UniformInt(1, 3));
    const int v = static_cast<int>(rng.UniformInt(0, 5));
    const int du = static_cast<int>(rng.UniformInt(0, 2));
    const int dv = static_cast<int>(rng.UniformInt(0, 3));
    if (du == 0 && dv == 0) continue;
    const double sub = oracle::OracleThroughput(
        catalog, Config({u, v}), truth, 150.0, mix, 1200, 7);
    const double super = oracle::OracleThroughput(
        catalog, Config({u + du, v + dv}), truth, 150.0, mix, 1200, 7);
    EXPECT_GE(super, sub * 0.999)
        << "(" << u << "," << v << ") vs +(" << du << "," << dv << ")";
  }
}

}  // namespace
}  // namespace kairos
