// Self-tests of the benchmark: the self-time arithmetic on hand-built
// span trees, the recorder's parent tracking across threads, the
// fastest-pass combination behind the end-to-end times, and, for
// every forwarding wrapper, that it reproduces the unwrapped library's
// outputs on a tiny input. Exits non-zero on the first failed check.
//
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cloud/instance_type.h"
#include "core/fleet.h"
#include "core/kairos.h"
#include "core/planner_backend.h"
#include "metrics.h"
#include "policy/registry.h"
#include "serving/engine.h"
#include "span_recorder.h"
#include "workload/arrival.h"
#include "workload/batch_dist.h"
#include "workload/query_source.h"
#include "workload/trace_io.h"
#include "wrappers.h"

namespace {

using perfbench::Span;
using perfbench::SpanKind;

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,        \
                   __LINE__, #cond);                                     \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

template <typename T>
T OrDie(kairos::StatusOr<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "unexpected error: %s\n",
                 value.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(value);
}

Span MakeSpan(std::int64_t start, std::int64_t end, std::uint32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestUnion() {
  CHECK(perfbench::UnionNs({}) == 0);
  CHECK(perfbench::UnionNs({{0, 5}, {5, 10}}) == 10);
  CHECK(perfbench::UnionNs({{0, 10}, {2, 3}}) == 10);
  CHECK(perfbench::UnionNs({{20, 30}, {0, 5}, {4, 8}}) == 18);
  CHECK(perfbench::UnionNs({{3, 3}, {7, 2}}) == 0);
}

void TestSelfTimes() {
  // 1 A [0,100)
  //   2 B [10,40)      overlaps C by 10
  //     5 E [15,20)    B's child only
  //   3 C [30,70)
  //   4 D [90,120)     runs past A; only [90,100) is inside A
  // 6 F [200,210)      a second root
  const std::vector<Span> spans = {
      MakeSpan(0, 100, 0),  MakeSpan(10, 40, 1), MakeSpan(30, 70, 1),
      MakeSpan(90, 120, 1), MakeSpan(15, 20, 2), MakeSpan(200, 210, 0)};
  const std::vector<std::int64_t> self = perfbench::SelfTimesNs(spans);
  CHECK(self.size() == 6);
  CHECK(self[0] == 100 - (60 + 10));  // children cover [10,70) and [90,100)
  CHECK(self[1] == 30 - 5);
  CHECK(self[2] == 40);
  CHECK(self[3] == 30);
  CHECK(self[4] == 5);
  CHECK(self[5] == 10);
}

void TestRecorderParents() {
  perfbench::SpanRecorder recorder(8);
  const std::uint32_t root = recorder.Begin(SpanKind::kPlanAll);
  const std::uint32_t nested = recorder.Begin(SpanKind::kPlan);
  recorder.End(nested);
  std::uint32_t worker = 0, worker_child = 0;
  std::thread t([&] {
    worker = recorder.Begin(SpanKind::kProbe);
    worker_child = recorder.Begin(SpanKind::kEval);
    recorder.End(worker_child);
    recorder.End(worker);
  });
  t.join();
  recorder.End(root);
  const std::uint32_t after = recorder.Begin(SpanKind::kServeAll);
  recorder.End(after);
  const auto spans = recorder.spans();
  CHECK(spans.size() == 5);
  CHECK(spans[nested - 1].parent == root);
  CHECK(spans[worker - 1].parent == root);  // fanned-out work nests
  CHECK(spans[worker_child - 1].parent == worker);
  CHECK(spans[worker - 1].thread != spans[root - 1].thread);
  CHECK(spans[after - 1].parent == 0);
  for (const Span& s : spans) CHECK(s.end_ns >= s.start_ns);
  for (int i = 0; i < 5; ++i) recorder.End(recorder.Begin(SpanKind::kStep));
  CHECK(recorder.spans().size() == 8);
  CHECK(recorder.dropped() == 2);
}

void TestPercentiles() {
  CHECK(perfbench::Percentile({}, 50) == 0.0);
  CHECK(perfbench::Percentile({3, 1, 2}, 50) == 2.0);
  CHECK(perfbench::Percentile({0, 10}, 25) == 2.5);
  CHECK(perfbench::TailLevel(5, 99) == 0.0);
  CHECK(perfbench::TailLevel(100, 99) == 90.0);
  CHECK(perfbench::TailLevel(5000, 99) == 99.0);
}

void TestFastestPass() {
  // Three passes of the same three steps; each step is fastest in a
  // different pass, and the time outside the steps is least in pass b.
  perfbench::PassResult a, b, c;
  a.step_ms = {1.0, 5.0, 9.0};
  a.time_scale = 2.0;
  a.wall_s = 0.010;  // 20 ms scaled: 15 ms of steps, 5 ms outside them
  b.step_ms = {3.0, 2.0, 9.5};
  b.wall_s = 0.0175;  // 14.5 ms of steps, 3 ms outside
  c.step_ms = {4.0, 6.0, 8.0};
  c.wall_s = 0.022;  // 18 ms of steps, 4 ms outside
  const perfbench::FastestPass fastest = perfbench::Fastest({a, b, c});
  CHECK((fastest.step_ms == std::vector<double>{1.0, 2.0, 8.0}));
  CHECK(std::abs(fastest.wall_s - 0.014) < 1e-12);  // 11 ms + 3 ms
  const perfbench::FastestPass one = perfbench::Fastest({c});
  CHECK(one.step_ms == c.step_ms);
  CHECK(std::abs(one.wall_s - c.wall_s) < 1e-12);
  CHECK(perfbench::Fastest({}).step_ms.empty());
}

/// Serves a tiny trace on a small NCF deployment under `policy_name`.
kairos::serving::RunResult ServeTiny(const std::string& policy_name) {
  const kairos::cloud::Catalog catalog = kairos::cloud::Catalog::PaperPool();
  const kairos::core::Kairos session =
      OrDie(kairos::core::Kairos::Create(catalog, "NCF"));
  kairos::Rng rng(5);
  const kairos::workload::Trace trace = kairos::workload::Trace::Generate(
      kairos::workload::PoissonArrivals(200.0),
      kairos::workload::LogNormalBatches::Production(), 400, rng);
  kairos::serving::SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = kairos::cloud::Config({1, 1, 2, 2});
  spec.truth = &session.truth();
  spec.qos_ms = session.qos_ms();
  kairos::serving::EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  auto engine = OrDie(kairos::serving::Engine::Create(
      spec, OrDie(kairos::PolicyRegistry::Global().Build(policy_name)), {},
      options));
  for (const kairos::workload::Query& q : trace.queries()) {
    CHECK(engine->Submit(q).ok());
  }
  engine->Drain();
  return engine->Totals();
}

void TestPolicyWrapper() {
  const kairos::serving::RunResult plain = ServeTiny("KAIROS");
  perfbench::SpanRecorder recorder(1 << 16);
  perfbench::SetActiveRecorder(&recorder);
  perfbench::Observations::Global().Reset();
  const kairos::serving::RunResult wrapped = ServeTiny(perfbench::kPolicyName);
  perfbench::SetActiveRecorder(nullptr);
  CHECK(plain.offered == 400);
  CHECK(wrapped.offered == plain.offered);
  CHECK(wrapped.served == plain.served);
  CHECK(wrapped.violations == plain.violations);
  CHECK(wrapped.latencies_ms == plain.latencies_ms);
  CHECK(wrapped.p99_ms == plain.p99_ms);
  const perfbench::ObservationTotals totals =
      perfbench::Observations::Global().Snapshot();
  CHECK(totals.rounds > 0);
  CHECK(recorder.spans().size() == totals.rounds);
  CHECK(totals.started <= totals.proposals);
  CHECK(totals.distinct_cols <= totals.cells);
}

/// Directory for the test's files: beside the test binary, in the build
/// tree, whatever the working directory.
std::string g_data_dir;

void TestSourceWrapper() {
  const std::string dir = g_data_dir;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/tiny.csv";
  kairos::Rng rng(9);
  const kairos::workload::Trace trace = kairos::workload::Trace::Generate(
      kairos::workload::PoissonArrivals(50.0),
      kairos::workload::LogNormalBatches::Production(), 64, rng);
  CHECK(kairos::workload::WriteTraceCsv(trace, path).ok());
  kairos::workload::QuerySourceSpec spec;
  spec.path = path;
  spec.chunk_bytes = 256;
  spec.source = "STREAM";
  auto plain = OrDie(kairos::QuerySourceRegistry::Global().Build(spec));
  spec.source = perfbench::kSourceName;
  auto wrapped = OrDie(kairos::QuerySourceRegistry::Global().Build(spec));
  CHECK(wrapped->Name() == plain->Name());
  perfbench::Observations::Global().Reset();
  kairos::Rng a(1), b(1);
  std::size_t emitted = 0;
  for (;;) {
    const auto x = plain->Next(a);
    const auto y = wrapped->Next(b);
    CHECK(x.has_value() == y.has_value());
    if (!x.has_value() || !y.has_value()) break;
    CHECK(x->gap == y->gap);
    CHECK(x->batch == y->batch);
    ++emitted;
  }
  CHECK(emitted == 64);
  CHECK(perfbench::Observations::Global().Snapshot().emissions == 64);
}

void TestPlannerWrappers() {
  const kairos::cloud::Catalog catalog = kairos::cloud::Catalog::PaperPool();
  const kairos::core::Kairos session =
      OrDie(kairos::core::Kairos::Create(catalog, "NCF"));
  const kairos::workload::QueryMonitor monitor = kairos::core::MonitorFromMix(
      kairos::workload::LogNormalBatches::Production(), 2000, 3);
  const kairos::core::PlannerContext ctx{&catalog, &session.truth(),
                                         session.qos_ms(), 2.5};
  kairos::core::PlanRequest request;
  request.monitor = &monitor;
  // A cheap deterministic stand-in for a throughput measurement.
  int calls = 0;
  request.eval = [&calls](const kairos::cloud::Config& c) {
    ++calls;
    return 10.0 * c.Count(0) + 3.0 * c.Count(1) + 1.0 * c.Count(2) +
           1.5 * c.Count(3);
  };
  for (const auto& [plain_name, wrapped_name] :
       {std::pair<std::string, std::string>{"KAIROS",
                                            perfbench::kOneShotPlannerName},
        {"KAIROS+", perfbench::kSearchPlannerName}}) {
    auto plain = OrDie(kairos::PlannerRegistry::Global().Build(plain_name));
    auto wrapped = OrDie(kairos::PlannerRegistry::Global().Build(wrapped_name));
    CHECK(wrapped->Name() == plain->Name());
    CHECK(wrapped->NeedsEvaluations() == plain->NeedsEvaluations());
    calls = 0;
    const auto p = OrDie(plain->Plan(ctx, request));
    const int plain_calls = calls;
    calls = 0;
    perfbench::Observations::Global().Reset();
    const auto w = OrDie(wrapped->Plan(ctx, request));
    CHECK(w.config == p.config);
    CHECK(w.expected_qps == p.expected_qps);
    CHECK(w.evaluations == p.evaluations);
    CHECK(calls == plain_calls);
    CHECK(perfbench::Observations::Global().Snapshot().eval_ms.size() ==
          static_cast<std::size_t>(plain_calls));
    const auto pp = OrDie(plain->Probe(ctx, request));
    const auto wp = OrDie(wrapped->Probe(ctx, request));
    CHECK(wp.config == pp.config);
    CHECK(wp.expected_qps == pp.expected_qps);
  }
}

void TestEvalWrapper() {
  perfbench::Observations::Global().Reset();
  const kairos::search::EvalFn eval = perfbench::ObserveEval(
      [](const kairos::cloud::Config& c) { return 2.0 * c.TotalInstances(); });
  CHECK(eval(kairos::cloud::Config({1, 2, 0, 0})) == 6.0);
  CHECK(eval(kairos::cloud::Config({0, 0, 0, 4})) == 8.0);
  CHECK(perfbench::Observations::Global().Snapshot().eval_ms.size() == 2);
}

/// A two-model fleet planned with KAIROS+ (the fleet's real evaluator)
/// and served with a load spike that makes QOS act, under the given
/// planner and controller names.
struct FleetOutcome {
  kairos::core::FleetPlan plan;
  kairos::core::FleetServeResult served;
};

FleetOutcome RunTinyFleet(const std::string& planner,
                          const std::string& controller) {
  static const kairos::cloud::Catalog catalog =
      kairos::cloud::Catalog::PaperPool();
  kairos::core::FleetOptions options;
  options.budget_per_hour = 3.0;
  options.planner = planner;
  options.allocator = "MARGINAL";
  options.seed = 11;
  std::vector<kairos::core::FleetModelOptions> models(2);
  models[0].model = "NCF";
  models[0].monitor_warmup = 2000;
  models[1].model = "WND";
  models[1].monitor_warmup = 2000;
  auto fleet = OrDie(kairos::Fleet::Create(catalog, models, options));
  fleet.ObserveMixAll(kairos::workload::LogNormalBatches::Production());
  kairos::search::SearchOptions search;
  search.max_evals = 4;
  FleetOutcome out;
  out.plan = OrDie(fleet.PlanAll(search));
  kairos::core::FleetServeOptions serve;
  serve.duration_s = 60.0;
  serve.base_rate_qps = 40.0;
  serve.window_s = 5.0;
  serve.controller = controller;
  serve.search = search;
  serve.shifts = {{20.0, "NCF", 6.0}, {40.0, "NCF", 1.0}};
  out.served = OrDie(fleet.ServeAll(out.plan, serve));
  return out;
}

void TestFleetWrappers() {
  const FleetOutcome plain = RunTinyFleet("KAIROS+", "QOS");
  perfbench::SpanRecorder recorder(1 << 12);
  perfbench::SetActiveRecorder(&recorder);
  perfbench::Observations::Global().Reset();
  const FleetOutcome wrapped = RunTinyFleet(perfbench::kSearchPlannerName,
                                            perfbench::kControllerName);
  perfbench::SetActiveRecorder(nullptr);
  CHECK(wrapped.plan.models.size() == plain.plan.models.size());
  for (std::size_t i = 0; i < plain.plan.models.size(); ++i) {
    CHECK(wrapped.plan.models[i].budget_per_hour ==
          plain.plan.models[i].budget_per_hour);
    CHECK(wrapped.plan.models[i].outcome.config ==
          plain.plan.models[i].outcome.config);
    CHECK(wrapped.plan.models[i].outcome.expected_qps ==
          plain.plan.models[i].outcome.expected_qps);
  }
  CHECK(wrapped.served.total_qps == plain.served.total_qps);
  CHECK(wrapped.served.reallocations == plain.served.reallocations);
  CHECK(wrapped.served.control_log.size() == plain.served.control_log.size());
  CHECK(wrapped.served.final_shares_per_hour ==
        plain.served.final_shares_per_hour);
  const perfbench::ObservationTotals totals =
      perfbench::Observations::Global().Snapshot();
  std::size_t probes = 0, plans = 0, evals = 0, decides = 0;
  for (const Span& s : recorder.spans()) {
    probes += s.kind == SpanKind::kProbe;
    plans += s.kind == SpanKind::kPlan;
    evals += s.kind == SpanKind::kEval;
    decides += s.kind == SpanKind::kDecide;
  }
  CHECK(probes > 0);
  CHECK(plans >= 2);
  CHECK(evals > 0);
  CHECK(evals == totals.eval_ms.size());
  CHECK(decides > 0);
  CHECK(totals.actions == plain.served.control_log.size());
  CHECK(recorder.dropped() == 0);
}

}  // namespace

int main(int /*argc*/, char** argv) {
  g_data_dir = (std::filesystem::absolute(argv[0]).parent_path() /
                "perfbench_test_data")
                   .string();
  perfbench::RegisterWrappers();
  perfbench::RegisterWrappers();  // idempotent
  TestUnion();
  TestSelfTimes();
  TestRecorderParents();
  TestPercentiles();
  TestFastestPass();
  TestPolicyWrapper();
  TestSourceWrapper();
  TestPlannerWrappers();
  TestEvalWrapper();
  TestFleetWrappers();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
