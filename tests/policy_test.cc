#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "policy/clockwork_policy.h"
#include "policy/drs_policy.h"
#include "policy/kairos_policy.h"
#include "policy/partitioned_policy.h"
#include "policy/ribbon_policy.h"
#include "serving/engine.h"
#include "workload/trace.h"
#include "or_throw.h"
#include "reference_jv.h"
#include "serve_trace.h"

namespace kairos::policy {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;
using serving::InstanceView;
using serving::LatencyPredictor;
using workload::Query;
using workload::Trace;

Catalog TinyCatalog() {
  Catalog c;
  c.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"aux", "A", cloud::InstanceClass::kGeneralPurposeCpu, 0.25, false});
  return c;
}

LatencyModel TinyModel() { return LatencyModel({{10.0, 0.1}, {20.0, 0.4}}); }

struct Fixture {
  Catalog catalog = TinyCatalog();
  LatencyModel truth = TinyModel();
  LatencyPredictor predictor{catalog, truth, serving::PredictorOptions{}};

  RoundContext Ctx(std::vector<Query>& waiting,
                   std::vector<InstanceView>& instances, double qos_ms,
                   Time now = 0.0) {
    RoundContext ctx;
    ctx.now = now;
    ctx.qos_sec = MsToSec(qos_ms);
    ctx.waiting = waiting;
    ctx.instances = instances;
    ctx.predictor = &predictor;
    ctx.catalog = &catalog;
    return ctx;
  }
};

TEST(KairosPolicyTest, PrefersHighSpeedupQueryOnFastInstance) {
  // One large and one small query, one base and one aux instance, both
  // idle. The large query has the higher base/aux speedup, so Kairos must
  // put the large one on the base and the small one on the aux.
  Fixture f;
  std::vector<Query> waiting = {Query{0, 600, 0.0}, Query{1, 20, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}, {1, 0.0, true, 0}};
  KairosPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 2u);
  for (const Assignment& a : out) {
    if (a.waiting_idx == 0) {
      EXPECT_EQ(a.instance_idx, 0u);  // large -> base
    }
    if (a.waiting_idx == 1) {
      EXPECT_EQ(a.instance_idx, 1u);  // small -> aux
    }
  }
}

TEST(KairosPolicyTest, AvoidsQosViolatingPairWhenAlternativeExists) {
  // A batch-600 query violates QoS=100ms on the aux (20+240=260ms) but not
  // on the base (70ms). Even with the base busy for a short while, the
  // penalized cost must route it to the base.
  Fixture f;
  std::vector<Query> waiting = {Query{0, 600, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.010, false, 0},
                                         {1, 0.0, true, 0}};
  KairosPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 100.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_idx, 0u);
}

TEST(KairosPolicyTest, WaitTimeTightensTheDeadline) {
  // Same query, but it has already waited 95 of its 100ms budget: now even
  // the base (70ms serve) violates, everything is penalized, and the
  // matching still returns an assignment (min-cost among penalties).
  Fixture f;
  std::vector<Query> waiting = {Query{0, 600, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.095, false, 0},
                                         {1, 0.095, true, 0}};
  KairosPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 100.0, /*now=*/0.095);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);  // Eq. 7: min(m, n) pairs always matched
}

TEST(KairosPolicyTest, HeterogeneityCoefficientSteersTies) {
  // Two identical small queries, one base + one aux, both idle, both meet
  // QoS. With C_j enabled the aux instance second of cost C_aux*L is
  // cheaper, so the pair (query, aux) participates in the min-cost
  // matching; with one query the solver must pick the aux.
  Fixture f;
  std::vector<Query> waiting = {Query{0, 10, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}, {1, 0.0, true, 0}};
  KairosPolicy with_coeff{KairosPolicyOptions{}};
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = with_coeff.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_idx, 1u);  // aux time is cheap; keep base free

  KairosPolicyOptions no_coeff;
  no_coeff.use_heterogeneity_coefficient = false;
  KairosPolicy without(no_coeff);
  const auto out2 = without.Distribute(ctx);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].instance_idx, 0u);  // raw latency: base is faster
}

TEST(KairosPolicyTest, MatchesMinOfQueriesAndInstances) {
  Fixture f;
  std::vector<Query> waiting;
  for (int i = 0; i < 5; ++i) {
    waiting.push_back(Query{static_cast<workload::QueryId>(i), 50, 0.0});
  }
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}, {1, 0.0, true, 0}};
  KairosPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  EXPECT_EQ(policy.Distribute(ctx).size(), 2u);  // Eq. 7

  std::vector<Query> one = {Query{0, 50, 0.0}};
  auto ctx2 = f.Ctx(one, instances, 300.0);
  EXPECT_EQ(policy.Distribute(ctx2).size(), 1u);
}

TEST(KairosPolicyTest, EmptyInputsYieldNoAssignments) {
  Fixture f;
  std::vector<Query> none;
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}};
  KairosPolicy policy;
  auto ctx = f.Ctx(none, instances, 300.0);
  EXPECT_TRUE(policy.Distribute(ctx).empty());
}

// ---------------------------------------------------------------------------
// Round equivalence: KairosPolicy prices per instance type and solves with
// the two-lane JV kernel; the round it replaced priced every (query,
// instance) pair and solved with the scalar kernel. The engine's
// fingerprints rest on the two agreeing exactly, cost bits included.
// ---------------------------------------------------------------------------

// The replaced round, verbatim: coefficients priced once per instance,
// busy time and the ms -> s conversion once per (query, instance) pair,
// then the scalar JV solver. Fills `cost` with the solved matrix.
std::vector<Assignment> ReferenceKairosRound(const RoundContext& ctx,
                                             const KairosPolicyOptions& options,
                                             Matrix& cost) {
  std::vector<Assignment> out;
  const std::size_t m = ctx.waiting.size();
  const std::size_t n = ctx.instances.size();
  if (m == 0 || n == 0) return out;

  std::vector<double> coeff(n, 1.0);
  if (options.use_heterogeneity_coefficient) {
    double best_ms = std::numeric_limits<double>::infinity();
    std::vector<double> largest_ms(n);
    for (std::size_t j = 0; j < n; ++j) {
      largest_ms[j] = ctx.predictor->PredictMsNoiseless(
          ctx.instances[j].type, latency::kMaxBatchSize);
      best_ms = std::min(best_ms, largest_ms[j]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      coeff[j] = largest_ms[j] > 0.0 ? best_ms / largest_ms[j] : 1.0;
    }
  }

  const bool batched = ctx.predictor->IsDeterministic();
  std::vector<std::vector<double>> per_type_ms;
  if (batched) {
    std::vector<int> batches(m);
    for (std::size_t i = 0; i < m; ++i) {
      batches[i] = ctx.waiting[i].batch_size;
    }
    cloud::TypeId max_type = 0;
    for (std::size_t j = 0; j < n; ++j) {
      max_type = std::max(max_type, ctx.instances[j].type);
    }
    per_type_ms.resize(max_type + 1);
    std::vector<char> priced(max_type + 1, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const cloud::TypeId t = ctx.instances[j].type;
      if (priced[t]) continue;
      ctx.predictor->PredictMsNoiselessBatch(t, batches, per_type_ms[t]);
      priced[t] = 1;
    }
  }

  cost.Reshape(m, n);
  const double penalty_sec = options.penalty_factor * ctx.qos_sec;
  for (std::size_t i = 0; i < m; ++i) {
    const Query& q = ctx.waiting[i];
    const Time wait = ctx.now - q.arrival;
    for (std::size_t j = 0; j < n; ++j) {
      const InstanceView& inst = ctx.instances[j];
      const Time busy_remaining = std::max(0.0, inst.available_at - ctx.now);
      const Time serve =
          batched ? MsToSec(per_type_ms[inst.type][i])
                  : ctx.predictor->Predict(inst.type, q.batch_size);
      Time l = busy_remaining + serve;
      if (l + wait > options.xi * ctx.qos_sec) l = penalty_sec;
      cost(i, j) = coeff[j] * l;
    }
  }

  const assign::AssignmentResult match =
      assign::reference::ReferenceSolveJv(cost);
  for (std::size_t i = 0; i < m; ++i) {
    const int j = match.col_for_row[i];
    if (j >= 0) out.push_back(Assignment{i, static_cast<std::size_t>(j)});
  }
  return out;
}

// gtest puts this struct's bytes into each test's name, so it holds no
// pointer (ASLR moves it on every run) and no padding (left uninitialised).
struct RoundVariant {
  char name[22];
  bool pretrained;
  bool heterogeneity;
  double noise_sigma;
};
static_assert(sizeof(RoundVariant) ==
              sizeof(char[22]) + 2 * sizeof(bool) + sizeof(double));

class KairosRoundEquivalence : public ::testing::TestWithParam<RoundVariant> {
};

// Random rounds on the paper pool (4 types, `pools` lists which of them
// the instances use: all, gaps, no base type, one type). The policy under
// test keeps its scratch across every round and shape; the reference gets
// its own, identically built predictor, so under noise both must consume
// their streams in the same (query, instance) order to agree.
TEST_P(KairosRoundEquivalence, SameAssignmentsAndCostBits) {
  const RoundVariant variant = GetParam();
  const Catalog catalog = Catalog::PaperPool();
  const LatencyModel truth(
      {{4.0, 0.02}, {9.0, 0.06}, {15.0, 0.11}, {20.0, 0.2}});
  serving::PredictorOptions predictor_options;
  predictor_options.pretrained = variant.pretrained;
  predictor_options.noise_sigma = variant.noise_sigma;
  LatencyPredictor predictor(catalog, truth, predictor_options);
  LatencyPredictor reference_predictor(catalog, truth, predictor_options);
  if (!variant.pretrained) {
    // Type 0 and 1 get a linear fit, type 2 a single batch size (the
    // proportional fallback); type 3 keeps the 0.1 ms no-data prior.
    for (LatencyPredictor* p : {&predictor, &reference_predictor}) {
      p->Observe(0, 10, truth.LatencyMs(0, 10));
      p->Observe(0, 500, truth.LatencyMs(0, 500));
      p->Observe(1, 40, truth.LatencyMs(1, 40));
      p->Observe(1, 900, truth.LatencyMs(1, 900));
      p->Observe(2, 200, truth.LatencyMs(2, 200));
    }
    ASSERT_EQ(predictor.ObservationCount(3), 0u);
  }
  KairosPolicyOptions options;
  options.use_heterogeneity_coefficient = variant.heterogeneity;
  KairosPolicy policy(options);

  const std::vector<std::vector<cloud::TypeId>> pools = {
      {0, 1, 2, 3}, {0, 2}, {1, 3}, {3}};
  Rng rng(41);
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(size) - 1));
  };
  Matrix reference_cost;
  int rounds = 0;
  for (const std::vector<cloud::TypeId>& pool : pools) {
    for (int rep = 0; rep < 60; ++rep) {
      const Time now = rng.Uniform(1.0, 100.0);
      const double qos_sec = rng.Uniform(0.05, 0.3);
      std::vector<InstanceView> instances(
          static_cast<std::size_t>(rng.UniformInt(1, 48)));
      for (InstanceView& inst : instances) {
        inst.type = pool[pick(pool.size())];
        // Idle, busy, or carrying a stale stamp that clamps to zero.
        const double roll = rng.Uniform();
        inst.available_at = roll < 0.3   ? now
                            : roll < 0.4 ? now - rng.Uniform(0.0, 0.01)
                                         : now + rng.Uniform(0.0, 0.08);
        inst.idle = inst.available_at <= now;
      }
      std::vector<Query> waiting(
          static_cast<std::size_t>(rng.UniformInt(0, 64)));
      for (std::size_t i = 0; i < waiting.size(); ++i) {
        const int batch = static_cast<int>(rng.UniformInt(1, 1000));
        Time wait = rng.Uniform(0.0, qos_sec);
        if (rng.Bernoulli(0.3)) {
          // Park the query on the Eq. 8 boundary of one instance, so the
          // penalty test's rounding decides that pair.
          const InstanceView& inst = instances[pick(instances.size())];
          const Time serve =
              MsToSec(predictor.PredictMsNoiseless(inst.type, batch));
          const Time l = std::max(0.0, inst.available_at - now) + serve;
          wait = options.xi * qos_sec - l;
        }
        waiting[i] =
            Query{static_cast<workload::QueryId>(i), batch, now - wait};
      }
      RoundContext ctx;
      ctx.now = now;
      ctx.qos_sec = qos_sec;
      ctx.waiting = waiting;
      ctx.instances = instances;
      ctx.catalog = &catalog;
      RoundContext reference_ctx = ctx;
      ctx.predictor = &predictor;
      reference_ctx.predictor = &reference_predictor;

      const std::vector<Assignment> got = policy.Distribute(ctx);
      const std::vector<Assignment> want =
          ReferenceKairosRound(reference_ctx, options, reference_cost);
      ASSERT_EQ(got.size(), want.size()) << variant.name << " round " << rounds;
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].waiting_idx, want[k].waiting_idx);
        ASSERT_EQ(got[k].instance_idx, want[k].instance_idx);
      }
      if (!waiting.empty()) {
        const Matrix& cost = policy.LastCostMatrix();
        ASSERT_EQ(cost.rows(), reference_cost.rows());
        ASSERT_EQ(cost.cols(), reference_cost.cols());
        ASSERT_EQ(std::memcmp(cost.data().data(), reference_cost.data().data(),
                              cost.data().size() * sizeof(double)),
                  0)
            << variant.name << " round " << rounds << ": cost bits differ";
      }
      ++rounds;
    }
  }
  // Both noise streams advanced by the same number of draws.
  EXPECT_EQ(predictor.PredictMs(0, 100), reference_predictor.PredictMs(0, 100));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KairosRoundEquivalence,
    ::testing::Values(RoundVariant{.name = "Pretrained",
                                   .pretrained = true,
                                   .heterogeneity = true,
                                   .noise_sigma = 0.0},
                      RoundVariant{.name = "NoHeterogeneity",
                                   .pretrained = true,
                                   .heterogeneity = false,
                                   .noise_sigma = 0.0},
                      RoundVariant{.name = "Noisy",
                                   .pretrained = true,
                                   .heterogeneity = true,
                                   .noise_sigma = 0.05},
                      RoundVariant{.name = "ColdTypes",
                                   .pretrained = false,
                                   .heterogeneity = true,
                                   .noise_sigma = 0.0},
                      RoundVariant{.name = "NoisyColdTypes",
                                   .pretrained = false,
                                   .heterogeneity = true,
                                   .noise_sigma = 0.05}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(RibbonPolicyTest, FcfsPrefersBaseOnIdlePool) {
  Fixture f;
  std::vector<Query> waiting = {Query{0, 50, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}, {1, 0.0, true, 0}};
  RibbonPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_idx, 0u);  // base preferred
}

TEST(RibbonPolicyTest, SpillsLargeQueryToAuxWhenBaseBusy) {
  // This is Ribbon's weakness the paper exploits: a large query lands on a
  // slow aux instance simply because the base is busy.
  Fixture f;
  std::vector<Query> waiting = {Query{0, 900, 0.0}};
  std::vector<InstanceView> instances = {{0, 1.0, false, 0},
                                         {1, 0.0, true, 0}};
  RibbonPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_idx, 1u);
}

TEST(RibbonPolicyTest, StopsWhenNoIdleInstance) {
  Fixture f;
  std::vector<Query> waiting = {Query{0, 50, 0.0}, Query{1, 50, 0.0}};
  std::vector<InstanceView> instances = {{0, 1.0, false, 0},
                                         {1, 1.0, false, 0}};
  RibbonPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  EXPECT_TRUE(policy.Distribute(ctx).empty());
}

TEST(DrsPolicyTest, ThresholdSplitsPools) {
  Fixture f;
  std::vector<Query> waiting = {Query{0, 500, 0.0}, Query{1, 50, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}, {1, 0.0, true, 0}};
  DrsPolicy policy(200);
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 2u);
  for (const Assignment& a : out) {
    if (a.waiting_idx == 0) {
      EXPECT_EQ(a.instance_idx, 0u);  // large -> base
    }
    if (a.waiting_idx == 1) {
      EXPECT_EQ(a.instance_idx, 1u);  // small -> aux
    }
  }
}

TEST(DrsPolicyTest, QueryWaitsWhenItsPoolIsBusy) {
  // Small query, aux pool busy, base idle: strict DRS keeps it waiting —
  // the missed opportunity the paper calls out.
  Fixture f;
  std::vector<Query> waiting = {Query{0, 50, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0},
                                         {1, 1.0, false, 0}};
  DrsPolicy policy(200);
  auto ctx = f.Ctx(waiting, instances, 300.0);
  EXPECT_TRUE(policy.Distribute(ctx).empty());
}

TEST(DrsPolicyTest, HomogeneousPoolTakesEverything) {
  Fixture f;
  std::vector<Query> waiting = {Query{0, 50, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}};
  DrsPolicy policy(200);
  auto ctx = f.Ctx(waiting, instances, 300.0);
  EXPECT_EQ(policy.Distribute(ctx).size(), 1u);
}

TEST(DrsPolicyTest, InvalidThresholdThrows) {
  EXPECT_THROW(DrsPolicy(-1), std::invalid_argument);
  EXPECT_THROW(DrsPolicy(1001), std::invalid_argument);
}

TEST(ClockworkPolicyTest, PicksEarliestCompletionMeetingQos) {
  // Base is backlogged 50ms; aux idle. A small query meets QoS on both but
  // completes earlier on the aux: CLKWRK must pick the aux.
  Fixture f;
  std::vector<Query> waiting = {Query{0, 10, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.050, false, 1},
                                         {1, 0.0, true, 0}};
  ClockworkPolicy policy;
  EXPECT_TRUE(policy.EarlyBinding());
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_idx, 1u);
}

TEST(ClockworkPolicyTest, FallsBackToEarliestWhenNoneMeetsQos) {
  Fixture f;
  // Both instances deeply backlogged; nothing meets QoS=50ms.
  std::vector<Query> waiting = {Query{0, 10, 0.0}};
  std::vector<InstanceView> instances = {{0, 5.0, false, 3},
                                         {1, 4.0, false, 3}};
  ClockworkPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 50.0);
  const auto out = policy.Distribute(ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_idx, 1u);  // earlier completion overall
}

TEST(ClockworkPolicyTest, AssignsEveryWaitingQuery) {
  // Early binding: all queries are committed each round.
  Fixture f;
  std::vector<Query> waiting;
  for (int i = 0; i < 6; ++i) {
    waiting.push_back(Query{static_cast<workload::QueryId>(i), 30, 0.0});
  }
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}};
  ClockworkPolicy policy;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  // One instance but early binding commits at most one query per instance
  // per round (the system enforces unique instance indices).
  const auto out = policy.Distribute(ctx);
  EXPECT_EQ(out.size(), 6u);  // Clockwork stacks its per-instance queue
}

TEST(PartitionedPolicyTest, SinglePartitionMatchesPlainKairos) {
  Fixture f;
  std::vector<Query> waiting = {Query{0, 600, 0.0}, Query{1, 20, 0.0}};
  std::vector<InstanceView> instances = {{0, 0.0, true, 0}, {1, 0.0, true, 0}};
  PartitionedKairosPolicy partitioned(1);
  KairosPolicy plain;
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto a = partitioned.Distribute(ctx);
  const auto b = plain.Distribute(ctx);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].waiting_idx, b[i].waiting_idx);
    EXPECT_EQ(a[i].instance_idx, b[i].instance_idx);
  }
}

TEST(PartitionedPolicyTest, AssignmentsStayWithinPartitions) {
  Fixture f;
  std::vector<Query> waiting;
  for (int i = 0; i < 8; ++i) {
    waiting.push_back(Query{static_cast<workload::QueryId>(i), 40, 0.0});
  }
  std::vector<InstanceView> instances(6, InstanceView{0, 0.0, true, 0});
  PartitionedKairosPolicy policy(2);
  auto ctx = f.Ctx(waiting, instances, 300.0);
  const auto out = policy.Distribute(ctx);
  EXPECT_FALSE(out.empty());
  for (const Assignment& a : out) {
    // Query id parity must match instance index parity (round-robin split).
    EXPECT_EQ(waiting[a.waiting_idx].id % 2, a.instance_idx % 2);
  }
}

TEST(PartitionedPolicyTest, ZeroPartitionsThrows) {
  EXPECT_THROW(PartitionedKairosPolicy(0), std::invalid_argument);
}

// Fig. 5 reproduction: with 2 instances and 4 staggered queries, Kairos's
// speedup-aware placement serves all four within QoS while naive FCFS
// (Ribbon) violates on one.
TEST(Fig5SlackScenario, KairosServesAllFourFcfsDoesNot) {
  Catalog catalog = TinyCatalog();
  // base: 40 + 0.26 b ms ; aux: 55 + 0.95 b ms, QoS 350 ms.
  const LatencyModel truth({{40.0, 0.26}, {55.0, 0.95}});
  serving::SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = Config({1, 1});
  spec.truth = &truth;
  spec.qos_ms = 350.0;

  // A small query arrives first, then a large one, then two more small
  // ones. Naive FCFS burns the base on the small leader; when the large
  // query arrives only the aux is idle, and the aux cannot serve it within
  // QoS (55 + 0.95*900 = 910 ms). Kairos parks the small leader on the aux
  // (its weighted time is cheap), keeping the base free for the query with
  // the high speedup.
  const Trace trace({Query{0, 100, 0.000}, Query{1, 900, 0.010},
                     Query{2, 100, 0.020}, Query{3, 100, 0.030}});

  serving::EngineOptions keep;
  keep.run.abort_violation_fraction = 0.0;
  auto kairos_engine = OrThrow(serving::Engine::Create(
      spec, std::make_unique<KairosPolicy>(), serving::PredictorOptions{},
      keep));
  auto fcfs_engine = OrThrow(serving::Engine::Create(
      spec, std::make_unique<RibbonPolicy>(), serving::PredictorOptions{},
      keep));
  const auto kairos_run = serving::ServeTrace(*kairos_engine, trace);
  const auto fcfs_run = serving::ServeTrace(*fcfs_engine, trace);
  EXPECT_EQ(kairos_run.violations, 0u)
      << "Kairos should serve all 4 queries within QoS";
  EXPECT_GT(fcfs_run.violations, 0u)
      << "naive FCFS should lose at least one query to QoS";
}

}  // namespace
}  // namespace kairos::policy
