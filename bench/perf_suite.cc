// The tracked perf-bench suite: machine-readable throughput numbers for
// every hot path this repo optimizes, emitted as BENCH_perf.json so the
// perf trajectory is diffable across commits (CI's perf-smoke job fails on
// a >2x regression vs bench/baselines/perf_baseline.json).
//
// Metrics:
//   * sim_events_per_sec           — raw discrete-event loop throughput
//   * eq_churn_{1k,100k,1m}_events_per_sec — steady-state event-queue
//                                    churn (fire one / schedule one) at a
//                                    held occupancy
//   * eval_trials_per_sec          — EvaluateConfig simulation trials/s
//   * evals_per_sec_kairos_plus    — KAIROS+ planning evaluations/s
//   * plans_per_sec_kairos         — one-shot (zero-evaluation) planning
//   * serve_all_wall_s_{1,2,4,8}t  — 8-shard fleet co-simulation wall-clock
//   * serve_all_speedup_8t         — wall(1 thread) / wall(8 threads)
//   * serve_all_wall_telemetry_s   — the 1-thread run with the telemetry
//                                    plane attached (metrics + spans +
//                                    barrier snapshots)
//   * serve_all_telemetry_overhead — wall(telemetry) / wall(1 thread); the
//                                    overhead contract gates this at <3%
//                                    in full mode (tiny walls are timer
//                                    noise; the baseline diff still
//                                    watches them at every size)
//   * sustained_queries_per_sec    — STREAM-fed overload run, arrivals/s wall
//   * sustained_shed_rate          — deadline-shed fraction of that run
//   * sustained_p99_ms             — worst windowed p99 of that run
//   * sustained_peak_rss_mb        — peak resident set after that run
//   * sustained_steady_allocs      — operator-new calls over the warm
//                                    second half of the sustained run's
//                                    windows; the zero-alloc contract
//                                    FATALs when it is not exactly 0
//   * sustained_telemetry_overhead — the same sustained run instrumented,
//                                    wall ratio; gated at <3% in sustained
//                                    mode (the 10M-query contract)
//
// The co-simulation runs also assert the sharding contract: every thread
// count must reproduce the 1-thread totals bit for bit, or the bench exits
// non-zero. The sustained run asserts the scale contract: every generated
// query is offered through the bounded-memory STREAM path and peak RSS
// stays under a hard bound (DESIGN.md Sec. 12), or the bench exits
// non-zero.
//
// Usage: perf_suite [output.json] [tiny|full|sustained]
//   tiny      — CI-sized inputs (seconds); the committed baseline uses tiny.
//   full      — larger inputs for local measurement.
//   sustained — tiny-sized inputs plus a 10M-query sustained streaming run
//               (also accepted as --sustained). KAIROS_SUSTAINED_QUERIES
//               overrides the query count in any mode (sanitizer jobs run
//               the sustained path at a tiny scale this way).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <fstream>
#include <new>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/fleet.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/batch_dist.h"

#if defined(__SANITIZE_ADDRESS__)
#define KAIROS_PERF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KAIROS_PERF_ASAN 1
#endif
#endif
#ifndef KAIROS_PERF_ASAN
#define KAIROS_PERF_ASAN 0
#endif

namespace kairos::bench {
/// Process-wide count of operator-new calls (scalar, array and aligned
/// forms). The sustained bench snapshots it at every window barrier to
/// assert the zero-steady-state-allocation contract; everything else
/// ignores it, and the relaxed counter costs one uncontended atomic add
/// per allocation — noise on a path that just called malloc.
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace kairos::bench

namespace {
void* CountedAlloc(std::size_t n, std::size_t align) {
  kairos::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  if (posix_memalign(&p, align, n) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = CountedAlloc(n, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace kairos::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  bool higher_is_better = true;
};

/// No-payload event for queue microbenches: trivially copyable, so EventFn
/// stores it inline and relocates with memcpy.
struct NoopEvent {
  void operator()() const {}
};

/// Shared state of one SimEventsPerSec run; the hop events hold a pointer.
struct ChainBench {
  sim::Simulator* sim = nullptr;
  std::size_t fired = 0;
  std::size_t total = 0;
};

/// One self-rescheduling hop: schedule-and-cancel a doomed companion, then
/// reschedule itself. Trivially copyable on purpose — the previous
/// std::function-based hop spent a third of the bench wall inside its own
/// capture allocation and indirect dispatch (gprof), swamping the queue
/// under test; this functor rides EventFn's inline memcpy path.
struct HopEvent {
  ChainBench* chain;
  double gap;
  void operator()() const {
    sim::Simulator& sim = *chain->sim;
    const sim::EventId doomed = sim.After(gap * 2.0, NoopEvent{});
    sim.Cancel(doomed);
    if (++chain->fired < chain->total) sim.After(gap, HopEvent{chain, gap});
  }
};

/// Raw event-loop throughput: several interleaved self-rescheduling chains
/// (the shape of engine source pulls + completions), with a cancellation on
/// every hop to exercise the free list. Best of three passes, because a
/// sub-second wall on a shared machine swings far more than a queue change
/// would.
Metric SimEventsPerSec(std::size_t total_events) {
  constexpr std::size_t kChains = 16;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    ChainBench chain{&sim, 0, total_events};
    const auto start = Clock::now();
    for (std::size_t c = 0; c < kChains; ++c) {
      const double gap = 0.9 + 0.01 * static_cast<double>(c);
      sim.After(gap, HopEvent{&chain, gap});
    }
    sim.RunUntil();
    const double wall = SecondsSince(start);
    // Count the cancelled companions too: Schedule+Cancel is queue work.
    best = std::max(best, 2.0 * static_cast<double>(chain.fired) / wall);
  }
  return {"sim_events_per_sec", best, true};
}

/// Steady-state event-queue churn at a held occupancy: `pending` events in
/// flight, then fire-one / schedule-one for a fixed op count, measured at
/// three occupancies. The heap pays log(pending) per op, so the three
/// numbers trace the queue's cost curve, not just one point on it.
std::vector<Metric> EventQueueChurn(bool tiny) {
  struct Case {
    const char* label;
    std::size_t pending;
  };
  constexpr Case kCases[] = {{"1k", 1000}, {"100k", 100000}, {"1m", 1000000}};
  std::vector<Metric> metrics;
  for (const Case& c : kCases) {
    const std::size_t ops = tiny ? 200000 : 1000000;
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      sim::EventQueue queue;
      std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
      const auto u01 = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(lcg >> 11) * 0x1.0p-53;
      };
      const double horizon = static_cast<double>(c.pending);
      for (std::size_t i = 0; i < c.pending; ++i) {
        queue.Schedule(u01() * horizon, NoopEvent{});
      }
      const auto start = Clock::now();
      for (std::size_t i = 0; i < ops; ++i) {
        const Time fired_at = queue.RunNext();
        queue.Schedule(fired_at + horizon * (0.5 + 0.5 * u01()),
                       NoopEvent{});
      }
      const double wall = SecondsSince(start);
      best = std::max(best, 2.0 * static_cast<double>(ops) / wall);
    }
    metrics.push_back(
        {std::string("eq_churn_") + c.label + "_events_per_sec", best, true});
  }
  return metrics;
}

/// EvaluateConfig trials/sec on the paper pool — the expensive unit
/// every search evaluation is made of.
Metric EvalTrialsPerSec(std::size_t queries, int rounds) {
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  ModelBench bench(catalog, "WND", /*budget=*/2.5);
  const auto mix = workload::LogNormalBatches::Production();
  const auto factory =
      OrDie(policy::PolicyRegistry::Global().MakeFactory("KAIROS", {}));
  serving::EvalOptions opt;
  opt.queries = queries;
  opt.rate_guess = 30.0;
  int trials = 0;
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const auto result =
        serving::EvaluateConfig(catalog, cloud::Config({2, 1, 1, 0}),
                                bench.truth, bench.qos_ms, factory, mix, opt);
    trials += result.trials;
  }
  const double wall = SecondsSince(start);
  return {"eval_trials_per_sec", static_cast<double>(trials) / wall, true};
}

/// KAIROS+ planning throughput in evaluations/sec over one plan, and
/// one-shot KAIROS plans/sec.
std::vector<Metric> PlannerEvalsPerSec(std::size_t queries,
                                       std::size_t max_evals) {
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  ModelBench bench(catalog, "WND", /*budget=*/3.0);
  const auto mix = workload::LogNormalBatches::Production();
  const auto monitor = core::MonitorFromMix(mix, 4000, /*seed=*/7);
  const auto factory =
      OrDie(policy::PolicyRegistry::Global().MakeFactory("KAIROS", {}));
  serving::EvalOptions eval_opt;
  eval_opt.queries = queries;
  eval_opt.rate_guess = 30.0;
  const search::EvalFn eval = [&](const cloud::Config& c) {
    return serving::EvaluateConfig(catalog, c, bench.truth, bench.qos_ms,
                                   factory, mix, eval_opt)
        .qps;
  };

  std::vector<Metric> metrics;
  {
    search::SearchOptions search;
    search.max_evals = max_evals;
    const auto start = Clock::now();
    const auto outcome = bench.PlanWith("KAIROS+", monitor, eval, search);
    const double wall = SecondsSince(start);
    metrics.push_back({"evals_per_sec_kairos_plus",
                       static_cast<double>(outcome.evaluations) / wall, true});
  }

  // One-shot planning passes (zero evaluations) for the registry default.
  {
    int plans = 0;
    const auto start = Clock::now();
    double wall = 0.0;
    while ((wall = SecondsSince(start)) < 0.5) {
      (void)bench.PlanWith("KAIROS", monitor);
      ++plans;
    }
    metrics.push_back(
        {"plans_per_sec_kairos", static_cast<double>(plans) / wall, true});
  }
  return metrics;
}

/// The telemetry overhead contract (DESIGN.md Sec. 13): an enabled plane
/// may cost at most this factor on a serve wall-clock.
constexpr double kTelemetryOverheadBound = 1.03;

/// 8-shard fleet co-simulation wall-clock at 1/2/4/8 serve threads, with a
/// bit-identity check of every run against the 1-thread totals, plus the
/// same run with the telemetry plane attached (gated at <3% overhead when
/// `gate_overhead` — full mode, where the wall is large enough to trust).
std::vector<Metric> ServeAllWallClock(double duration_s, bool gate_overhead) {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 24.0;
  auto fleet = OrDie(core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{.model = "NCF"},
       core::FleetModelOptions{.model = "RM2"},
       core::FleetModelOptions{.model = "WND"},
       core::FleetModelOptions{.model = "MT-WND"},
       core::FleetModelOptions{.model = "DIEN"},
       core::FleetModelOptions{.model = "NCF", .name = "NCF-B"},
       core::FleetModelOptions{.model = "WND", .name = "WND-B"},
       core::FleetModelOptions{.model = "RM2", .name = "RM2-B"}},
      options));
  fleet.ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = OrDie(fleet.PlanAll());

  core::FleetServeOptions serve;
  serve.duration_s = duration_s;
  serve.base_rate_qps = 60.0;
  serve.window_s = 5.0;

  std::vector<Metric> metrics;
  double wall_1t = 0.0, wall_8t = 0.0;
  core::FleetServeResult reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    serve.serve_threads = threads;
    if (threads == 1) (void)OrDie(fleet.ServeAll(plan, serve));  // warm-up
    const auto start = Clock::now();
    auto result = OrDie(fleet.ServeAll(plan, serve));
    const double wall = SecondsSince(start);
    if (threads == 1) {
      wall_1t = wall;
      reference = std::move(result);
    } else if (result.total_weighted_qps != reference.total_weighted_qps ||
               result.models.size() != reference.models.size()) {
      std::cerr << "FATAL: ServeAll with " << threads
                << " threads diverged from the 1-thread run\n";
      std::exit(1);
    }
    if (threads == 8) wall_8t = wall;
    metrics.push_back({"serve_all_wall_s_" + std::to_string(threads) + "t",
                       wall, /*higher_is_better=*/false});
  }
  // A real multi-core gate: on hardware with >= 8 threads the 8-way shard
  // must actually buy wall-clock (>= 1.5x over 1 thread), in-binary, so a
  // serialization bug cannot hide behind a single-core baseline. One
  // remeasured pair absorbs scheduler hiccups before declaring failure.
  constexpr double kSpeedupFloor = 1.5;
  double speedup_8t = wall_1t / wall_8t;
  if (std::thread::hardware_concurrency() >= 8 &&
      speedup_8t < kSpeedupFloor) {
    serve.serve_threads = 1;
    const auto retry_1t = Clock::now();
    (void)OrDie(fleet.ServeAll(plan, serve));
    const double best_1t = std::min(wall_1t, SecondsSince(retry_1t));
    serve.serve_threads = 8;
    const auto retry_8t = Clock::now();
    (void)OrDie(fleet.ServeAll(plan, serve));
    const double best_8t = std::min(wall_8t, SecondsSince(retry_8t));
    speedup_8t = best_1t / best_8t;
  }
  metrics.push_back({"serve_all_speedup_8t", speedup_8t, true});
  if (std::thread::hardware_concurrency() >= 8 &&
      speedup_8t < kSpeedupFloor) {
    std::cerr << "FATAL: serve_all_speedup_8t " << speedup_8t
              << "x is below the " << kSpeedupFloor
              << "x floor on a machine with "
              << std::thread::hardware_concurrency()
              << " hardware threads\n";
    std::exit(1);
  }

  // The same 1-thread run with the telemetry plane attached: per-engine
  // counters and spans, barrier snapshots, the lot. Best of two runs, so
  // one scheduler hiccup cannot fail the gate.
  auto telemetry = OrDie(telemetry::Telemetry::Create(
      {"NCF", "RM2", "WND", "MT-WND", "DIEN", "NCF-B", "WND-B", "RM2-B"}));
  serve.serve_threads = 1;
  serve.telemetry = telemetry.get();
  double wall_tel = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    telemetry->Reset();
    const auto start = Clock::now();
    const auto result = OrDie(fleet.ServeAll(plan, serve));
    wall_tel = std::min(wall_tel, SecondsSince(start));
    if (result.total_weighted_qps != reference.total_weighted_qps ||
        result.telemetry_samples.empty()) {
      std::cerr << "FATAL: telemetry-enabled ServeAll diverged from the "
                   "uninstrumented run (pure-observer contract broken)\n";
      std::exit(1);
    }
  }
  double overhead = wall_tel / wall_1t;
  if (gate_overhead && overhead > kTelemetryOverheadBound) {
    // Wall noise can exceed 3% on its own. Before declaring a breach,
    // measure one more interleaved pair and gate on the best of each side.
    serve.telemetry = nullptr;
    const auto retry_base = Clock::now();
    (void)OrDie(fleet.ServeAll(plan, serve));
    const double wall_base = std::min(wall_1t, SecondsSince(retry_base));
    serve.telemetry = telemetry.get();
    telemetry->Reset();
    const auto retry_tel = Clock::now();
    (void)OrDie(fleet.ServeAll(plan, serve));
    wall_tel = std::min(wall_tel, SecondsSince(retry_tel));
    overhead = wall_tel / wall_base;
  }
  metrics.push_back({"serve_all_wall_telemetry_s", wall_tel, false});
  metrics.push_back({"serve_all_telemetry_overhead", overhead, false});
  if (gate_overhead && overhead > kTelemetryOverheadBound) {
    std::cerr << "FATAL: telemetry overhead " << overhead
              << "x on serve_all_wall crossed the "
              << kTelemetryOverheadBound << "x bound\n";
    std::exit(1);
  }
  return metrics;
}

/// Peak resident set size of this process so far, in MB (Linux ru_maxrss
/// is in KB).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The million-user scale path under load: generates an overload trace CSV
/// of `n_queries` rows, streams it through Fleet::ServeAll via the STREAM
/// source (bounded-memory chunks, no materialization) with deadline
/// shedding armed, and reports wall-clock arrival throughput, the shed
/// fraction, the worst windowed p99 and peak RSS. Exits non-zero when a
/// query is lost before admission (offered != n_queries) or peak RSS
/// crosses the hard bound — the scale contract this bench exists to keep.
/// The run is then repeated with the telemetry plane attached; the wall
/// ratio is gated at <3% when `gate_overhead` (sustained mode — the
/// 10M-query half of the overhead contract).
std::vector<Metric> SustainedStreaming(std::size_t n_queries,
                                       bool gate_overhead) {
  constexpr double kRssBoundMb = 1024.0;
  const std::string trace_path = "perf_sustained_trace.csv";

  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  // A small config on purpose: saturated-regime wall cost is
  // O(matcher_window x instances) per policy round, and this bench
  // measures the streaming/admission path, not matcher scaling.
  options.budget_per_hour = 1.0;
  core::FleetModelOptions model;
  model.model = "NCF";
  model.trace = "STREAM";
  model.trace_path = trace_path;
  auto fleet = OrDie(core::Fleet::Create(catalog, {model}, options));
  fleet.ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = OrDie(fleet.PlanAll());

  // Offered rate: 2x the planner's expected allowable throughput, so the
  // run is a sustained overload and the shed path actually runs.
  const double expected_qps = plan.models[0].outcome.expected_qps;
  const double rate_qps = 2.0 * (expected_qps > 0.0 ? expected_qps : 100.0);
  {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "FATAL: cannot write " << trace_path << "\n";
      std::exit(1);
    }
    std::fputs("id,arrival_s,batch\n", f);
    for (std::size_t i = 0; i < n_queries; ++i) {
      // Uniform arrivals; batches cycle 1..8 (a deterministic stand-in
      // for the production mix the plan was built against).
      std::fprintf(f, "%zu,%.9f,%d\n", i + 1,
                   static_cast<double>(i + 1) / rate_qps,
                   static_cast<int>(i % 8) + 1);
    }
    std::fclose(f);
  }

  core::FleetServeOptions serve;
  serve.duration_s = 1.05 * static_cast<double>(n_queries) / rate_qps;
  serve.window_s = serve.duration_s / 25.0;
  serve.base_rate_qps = rate_qps;  // ignored by STREAM; must be positive
  serve.keep_latencies = false;
  // Degradation doctrine: shed what cannot meet 3x QoS, with a hard
  // queue-depth backstop so resident memory is bounded whatever the
  // overload factor.
  serve.admission.deadline_s = 3.0 * plan.models[0].qos_ms / 1000.0;
  serve.admission.max_queue = 100000;
  serve.serve_threads = 1;

  // Steady-state allocation audit (the zero-alloc contract): snapshot the
  // process-wide operator-new counter at every window barrier. The first
  // half of the run is warm-up — slabs, ring buffers and policy scratch
  // grow to their high-water marks — after which the serving path must
  // touch the heap exactly zero times per window: every event lives in the
  // simulator slab, every queued query in a ring, every policy round in
  // reused scratch, and the streaming reader in its steady chunk buffer.
  std::vector<std::uint64_t> allocs_at_window;
  allocs_at_window.reserve(64);
  serve.window_probe = [&allocs_at_window](std::size_t,
                                           const serving::WindowedMetrics&) {
    allocs_at_window.push_back(
        g_heap_allocs.load(std::memory_order_relaxed));
  };

  const auto start = Clock::now();
  const auto result = OrDie(fleet.ServeAll(plan, serve));
  const double wall = SecondsSince(start);
  serve.window_probe = nullptr;

  double steady_allocs = 0.0;
  if (allocs_at_window.size() >= 4) {
    const std::size_t warm = allocs_at_window.size() / 2;
    steady_allocs =
        static_cast<double>(allocs_at_window.back() - allocs_at_window[warm]);
  }
  if (steady_allocs > 0.0) {
    std::cerr << (KAIROS_PERF_ASAN ? "warning" : "FATAL")
              << ": sustained run made " << steady_allocs
              << " heap allocations across its warm second half ("
              << allocs_at_window.size()
              << " windows); the steady-state serving path must be "
                 "allocation-free\n";
    if (!KAIROS_PERF_ASAN) std::exit(1);
  }

  // The instrumented replay of the same stream: identical totals required
  // (pure observer), wall ratio reported and — in sustained mode — gated.
  auto telemetry = OrDie(telemetry::Telemetry::Create({"NCF"}));
  serve.telemetry = telemetry.get();
  const auto tel_start = Clock::now();
  const auto tel_result = OrDie(fleet.ServeAll(plan, serve));
  double wall_tel = SecondsSince(tel_start);
  if (tel_result.models[0].totals.offered != result.models[0].totals.offered ||
      tel_result.models[0].totals.served != result.models[0].totals.served ||
      tel_result.models[0].totals.shed != result.models[0].totals.shed) {
    std::cerr << "FATAL: telemetry-enabled sustained run diverged from the "
                 "uninstrumented run (pure-observer contract broken)\n";
    std::exit(1);
  }
  double wall_best = wall;
  double overhead = wall_tel / wall_best;
  if (gate_overhead && overhead > kTelemetryOverheadBound) {
    // Run-to-run wall noise on a shared machine can exceed 3% on its own.
    // Before declaring a contract breach, measure one more interleaved
    // pair and gate on the best of each side.
    serve.telemetry = nullptr;
    const auto retry_base = Clock::now();
    (void)OrDie(fleet.ServeAll(plan, serve));
    wall_best = std::min(wall_best, SecondsSince(retry_base));
    serve.telemetry = telemetry.get();
    telemetry->Reset();
    const auto retry_tel = Clock::now();
    (void)OrDie(fleet.ServeAll(plan, serve));
    wall_tel = std::min(wall_tel, SecondsSince(retry_tel));
    overhead = wall_tel / wall_best;
  }
  std::remove(trace_path.c_str());
  if (gate_overhead && overhead > kTelemetryOverheadBound) {
    std::cerr << "FATAL: telemetry overhead " << overhead
              << "x on the sustained run crossed the "
              << kTelemetryOverheadBound << "x bound\n";
    std::exit(1);
  }

  const serving::RunResult& totals = result.models[0].totals;
  if (totals.offered != n_queries) {
    std::cerr << "FATAL: sustained run offered " << totals.offered << " of "
              << n_queries << " generated queries (stream lost data)\n";
    std::exit(1);
  }
  if (totals.served + totals.shed + totals.rejected > totals.offered) {
    std::cerr << "FATAL: sustained run accounting is inconsistent: served "
              << totals.served << " + shed " << totals.shed << " + rejected "
              << totals.rejected << " > offered " << totals.offered << "\n";
    std::exit(1);
  }
  double worst_p99 = 0.0;
  for (const serving::WindowedMetrics& w : result.models[0].windows) {
    worst_p99 = std::max(worst_p99, w.p99_ms);
  }
  const double peak_rss = PeakRssMb();
  if (peak_rss > kRssBoundMb) {
    std::cerr << "FATAL: peak RSS " << peak_rss << " MB crossed the "
              << kRssBoundMb << " MB sustained-mode bound\n";
    std::exit(1);
  }
  std::cout << "  sustained: " << totals.offered << " offered, "
            << totals.served << " served, " << totals.shed << " shed, "
            << totals.rejected << " rejected in " << wall << "s wall\n";
  return {
      {"sustained_queries_per_sec",
       static_cast<double>(totals.offered) / wall, true},
      {"sustained_shed_rate",
       static_cast<double>(totals.shed) /
           static_cast<double>(totals.offered), false},
      {"sustained_p99_ms", worst_p99, false},
      {"sustained_peak_rss_mb", peak_rss, false},
      {"sustained_steady_allocs", steady_allocs, false},
      {"sustained_telemetry_overhead", overhead, false},
  };
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_perf.json";
  std::string mode = argc > 2 ? argv[2] : "full";
  if (mode == "--sustained") mode = "sustained";
  const bool sustained = mode == "sustained";
  // Sustained mode sizes everything but the streaming run like tiny: the
  // point is the 10M-query stream, not longer planner loops.
  const bool tiny = mode == "tiny" || sustained;
  if (mode != "tiny" && mode != "full" && !sustained) {
    std::cerr << "usage: perf_suite [output.json] [tiny|full|sustained]\n";
    return 2;
  }

  std::vector<Metric> metrics;
  std::cout << "perf_suite (" << mode << ") on "
            << std::thread::hardware_concurrency() << " hardware threads\n";

  metrics.push_back(SimEventsPerSec(tiny ? 200000 : 2000000));
  metrics.push_back(EvalTrialsPerSec(tiny ? 150 : 600, tiny ? 3 : 8));
  for (Metric& m : PlannerEvalsPerSec(tiny ? 150 : 500, tiny ? 8 : 24)) {
    metrics.push_back(std::move(m));
  }
  // The <3% telemetry-overhead contract is enforced in-binary only where
  // the wall is long enough for 3% to beat timer noise: full mode for the
  // co-simulation wall, sustained mode for the 10M-query stream. Tiny
  // runs still *report* the overhead metrics, and CI's baseline diff
  // watches them like every other metric.
  for (Metric& m : ServeAllWallClock(tiny ? 120.0 : 480.0,
                                     /*gate_overhead=*/mode == "full")) {
    metrics.push_back(std::move(m));
  }
  std::size_t sustained_queries = sustained ? 10000000
                                 : tiny      ? 200000
                                             : 2000000;
  if (const char* env = std::getenv("KAIROS_SUSTAINED_QUERIES")) {
    // Sanitizer jobs drive the sustained path at a tiny scale this way.
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) sustained_queries = static_cast<std::size_t>(parsed);
  }
  for (Metric& m : SustainedStreaming(sustained_queries,
                                      /*gate_overhead=*/sustained)) {
    metrics.push_back(std::move(m));
  }
  // After the sustained run on purpose: PeakRssMb() is a process-lifetime
  // high-water mark, and the 1M-occupancy case would otherwise pollute the
  // sustained_peak_rss_mb bound.
  for (Metric& m : EventQueueChurn(tiny)) {
    metrics.push_back(std::move(m));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"perf_suite\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", metrics[i].value);
    out << "    \"" << metrics[i].name << "\": {\"value\": " << value
        << ", \"higher_is_better\": "
        << (metrics[i].higher_is_better ? "true" : "false") << "}"
        << (i + 1 < metrics.size() ? "," : "") << "\n";
    std::cout << "  " << metrics[i].name << " = " << value << "\n";
  }
  out << "  }\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace kairos::bench

int main(int argc, char** argv) { return kairos::bench::Main(argc, argv); }
