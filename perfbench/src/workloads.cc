#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>

#include "calibration.h"
#include "cloud/instance_type.h"
#include "core/fleet.h"
#include "core/kairos.h"
#include "policy/registry.h"
#include "serving/engine.h"
#include "sim/simulator.h"
#include "span_recorder.h"
#include "workload/arrival.h"
#include "workload/batch_dist.h"
#include "workload/query_source.h"
#include "workload/trace_io.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using kairos::Status;
using kairos::StatusOr;

/// FNV-1a over 64-bit words, for fingerprints.
class Fingerprint {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void AddDouble(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Every fleet plan invariant the benchmark relies on: shares within the
/// global budget, each chosen config within its share, a base instance
/// in every config.
Status CheckPlan(const kairos::core::FleetPlan& plan,
                 const kairos::cloud::Catalog& catalog) {
  constexpr double kEps = 1e-9;
  double shares = 0.0;
  for (const kairos::core::FleetModelPlan& m : plan.models) {
    shares += m.budget_per_hour;
    if (m.cost_per_hour > m.budget_per_hour + kEps) {
      return Status::Internal("plan for " + m.model + " costs " +
                              std::to_string(m.cost_per_hour) +
                              " $/hr, above its share " +
                              std::to_string(m.budget_per_hour));
    }
    bool has_base = false;
    for (kairos::cloud::TypeId t = 0; t < catalog.size(); ++t) {
      has_base = has_base || (catalog[t].is_base &&
                              m.outcome.config.Count(t) > 0);
    }
    if (!has_base) {
      return Status::Internal("plan for " + m.model + " (" +
                              m.outcome.config.ToString() +
                              ") has no base instance");
    }
  }
  if (shares > plan.budget_per_hour + kEps) {
    return Status::Internal("plan shares sum to " + std::to_string(shares) +
                            " $/hr, above the budget " +
                            std::to_string(plan.budget_per_hour));
  }
  return Status::Ok();
}

/// One fleet member: a Table-3 model, optionally under an alias.
kairos::core::FleetModelOptions Model(std::string model,
                                      std::string alias = "") {
  kairos::core::FleetModelOptions options;
  options.model = std::move(model);
  options.name = std::move(alias);
  return options;
}

void AddPlan(const kairos::core::FleetPlan& plan, Fingerprint& fp) {
  for (const kairos::core::FleetModelPlan& m : plan.models) {
    fp.AddDouble(m.budget_per_hour);
    for (kairos::cloud::TypeId t = 0; t < m.outcome.config.NumTypes(); ++t) {
      fp.Add(static_cast<std::uint64_t>(m.outcome.config.Count(t)));
    }
    fp.AddDouble(m.outcome.expected_qps);
    fp.Add(m.outcome.evaluations);
  }
}

/// The production batch mix, drawn by stratified inverse-CDF sampling:
/// the k-th draw is the batch size at quantile (k mod strata + 0.5) /
/// strata, whatever the caller's Rng. A monitor warmed with `strata` draws
/// then holds the production mix itself rather than one random sample of
/// it. Sample() advances a counter: not thread-safe.
class StratifiedProduction final : public kairos::workload::BatchDistribution {
 public:
  explicit StratifiedProduction(std::size_t strata) : strata_(strata) {
    const auto production = kairos::workload::LogNormalBatches::Production();
    for (int b = 1; b <= kMaxBatch; ++b) cdf_[b - 1] = production.Cdf(b);
  }

  int Sample(kairos::Rng&) const override {
    const double q = (static_cast<double>(next_++ % strata_) + 0.5) /
                     static_cast<double>(strata_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), q);
    return it == cdf_.end() ? kMaxBatch
                            : static_cast<int>(it - cdf_.begin()) + 1;
  }
  double Cdf(int b) const override {
    return b < 1 ? 0.0 : b >= kMaxBatch ? 1.0 : cdf_[b - 1];
  }
  std::string Name() const override { return "stratified(production)"; }

 private:
  static constexpr int kMaxBatch = 1000;
  std::array<double, kMaxBatch> cdf_{};
  std::size_t strata_;
  mutable std::size_t next_ = 0;
};

// --- serve_stream ---------------------------------------------------------

constexpr double kStreamRateQps = 725.0;  // allowable rate of the pinned config
// Simulated seconds per pass: short enough that a run holds several
// passes, whose fastest steps the end-to-end times combine.
constexpr double kStreamHorizonS = 60.0;
constexpr double kStreamStepS = 0.025;    // simulated seconds per step
constexpr std::size_t kStreamMaxQueue = 4096;
// Arrival blocks per simulated second; divides kStreamRateQps (725 = 5 x
// 145). Whole-second blocks left the queue seed-dependent (METRICS.md).
constexpr std::size_t kStreamBlocksPerSecond = 5;
constexpr std::size_t kStreamSampleEvery = 10;  // steps per speed sample

class ServeStream final : public Workload {
 public:
  ServeStream(std::uint64_t seed, std::string csv_path,
              std::size_t offered_by_horizon)
      : seed_(seed),
        csv_path_(std::move(csv_path)),
        offered_by_horizon_(offered_by_horizon) {}

  Status Setup(Mode mode) override {
    state_.reset();
    auto state = std::make_unique<State>();
    state->catalog = kairos::cloud::Catalog::PaperPool();
    kairos::core::KairosOptions options;
    options.budget_per_hour = 8.0;
    options.seed = seed_;
    auto session =
        kairos::core::Kairos::Create(state->catalog, "RM2", options);
    if (!session.ok()) return session.status();
    state->session.emplace(*std::move(session));
    state->session->ObserveMix(
        kairos::workload::LogNormalBatches::Production());

    const bool traced = mode == Mode::kTraced;
    auto policy = kairos::PolicyRegistry::Global().Build(
        traced ? kPolicyName : "KAIROS");
    if (!policy.ok()) return policy.status();
    kairos::serving::SystemSpec spec;
    spec.catalog = &state->catalog;
    spec.config = kairos::cloud::Config({3, 0, 4, 35});
    spec.truth = &state->session->truth();
    spec.qos_ms = state->session->qos_ms();
    kairos::serving::EngineOptions engine_options;
    engine_options.run.abort_violation_fraction = 0.0;
    engine_options.run.keep_latencies = false;
    engine_options.seed = seed_;
    engine_options.admission.deadline_s = spec.qos_ms / 1000.0;
    engine_options.admission.max_queue = kStreamMaxQueue;
    auto engine = kairos::serving::Engine::Create(
        spec, *std::move(policy), {}, engine_options, &state->clock);
    if (!engine.ok()) return engine.status();
    state->engine = *std::move(engine);

    kairos::workload::QuerySourceSpec source_spec;
    source_spec.source = traced ? kSourceName : "STREAM";
    source_spec.path = csv_path_;
    auto source = kairos::QuerySourceRegistry::Global().Build(source_spec);
    if (!source.ok()) return source.status();
    state->source = *std::move(source);
    if (Status s = state->engine->SubmitSource(*state->source); !s.ok()) {
      return s;
    }
    state_ = std::move(state);
    return Status::Ok();
  }

  StatusOr<PassResult> Run() override {
    if (state_ == nullptr) return Status::FailedPrecondition("no set-up");
    kairos::serving::Engine& engine = *state_->engine;
    SpanRecorder* recorder = ActiveRecorder();
    const auto steps =
        static_cast<std::size_t>(std::llround(kStreamHorizonS / kStreamStepS));
    PassResult r;
    r.step_ms.reserve(steps);
    std::size_t fired = 0;
    std::size_t pending_max = 0;
    SpeedSampler speed;
    double sampled_s = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 1; k <= steps; ++k) {
      if (recorder != nullptr) recorder->SetStep(k);
      const Clock::time_point step_start = Clock::now();
      {
        ScopedSpan span(recorder, SpanKind::kStep);
        fired += engine.AdvanceTo(static_cast<double>(k) * kStreamStepS);
      }
      r.step_ms.push_back(MsSince(step_start));
      pending_max = std::max(pending_max, state_->clock.PendingEvents());
      if (k % kStreamSampleEvery == 0) sampled_s += speed.Sample();
    }
    r.wall_s = MsSince(start) / 1000.0 - sampled_s;
    r.time_scale = speed.Scale();
    for (double& ms : r.step_ms) ms *= r.time_scale;

    // The ledger: every query of the trace was offered by the horizon, and
    // once the backlog drains each one was served, shed or rejected.
    const kairos::serving::RunResult at_horizon = engine.Totals();
    const std::size_t offered = at_horizon.offered;
    const std::size_t unfinished = engine.Backlog();
    if (offered != offered_by_horizon_) {
      return Status::Internal(
          "serve_stream offered " + std::to_string(offered) +
          " queries by the horizon, the trace holds " +
          std::to_string(offered_by_horizon_));
    }
    engine.Drain();
    const kairos::serving::RunResult drained = engine.Totals();
    if (drained.offered != offered ||
        drained.served + drained.shed + drained.rejected != offered) {
      return Status::Internal(
          "serve_stream lost queries while draining: offered " +
          std::to_string(drained.offered) + ", served " +
          std::to_string(drained.served) + ", shed " +
          std::to_string(drained.shed) + ", rejected " +
          std::to_string(drained.rejected));
    }

    r.offered = static_cast<double>(offered);
    r.events_fired = static_cast<double>(fired);
    r.pending_max = static_cast<double>(pending_max);
    r.goodput_qps =
        static_cast<double>(at_horizon.served - at_horizon.violations) /
        kStreamHorizonS;
    r.sim_qps = r.offered / r.wall_s;
    r.failed_share = static_cast<double>(at_horizon.rejected +
                                         at_horizon.shed + unfinished) /
                     r.offered;
    r.attempted = steps;
    Fingerprint fp;
    for (const std::size_t v :
         {offered, at_horizon.served, at_horizon.shed, at_horizon.rejected,
          at_horizon.violations, unfinished, fired, drained.served,
          drained.violations}) {
      fp.Add(v);
    }
    fp.AddDouble(at_horizon.mean_ms);
    fp.AddDouble(drained.mean_ms);
    r.fingerprint = fp.value();
    state_.reset();
    return r;
  }

 private:
  // Declaration order is destruction order in reverse: the engine goes
  // first, then the source and clock it points into, then the session
  // and catalog the spec points into.
  struct State {
    kairos::cloud::Catalog catalog;
    std::optional<kairos::core::Kairos> session;
    kairos::sim::Simulator clock;
    std::unique_ptr<kairos::workload::QuerySource> source;
    std::unique_ptr<kairos::serving::Engine> engine;
  };

  std::uint64_t seed_;
  std::string csv_path_;
  std::size_t offered_by_horizon_;
  std::unique_ptr<State> state_;
};

/// Writes serve_stream's trace: kStreamRateQps x kStreamHorizonS queries,
/// all inside the horizon, in blocks of 1/kStreamBlocksPerSecond s that
/// each hold exactly kStreamRateQps / kStreamBlocksPerSecond queries. The
/// production mix's kStreamRateQps evenly spaced quantiles are dealt to a
/// second's blocks in turn (block j gets quantiles j, j + 5, ...), so
/// every block carries nearly the same work. Within a block, arrivals are
/// uniform order statistics (a Poisson process conditioned on the block's
/// count) and the batch sizes come in seeded random order. The seed thus
/// moves when each query arrives and the order of the batches, not how
/// much work arrives in any block: the pinned rate sits at the config's
/// capacity, where the queue otherwise random-walks and a pass's cost
/// follows it (see METRICS.md). Returns the number of queries, as read
/// back.
StatusOr<std::size_t> WriteStreamTrace(std::uint64_t seed,
                                       const std::string& path) {
  const auto per_second =
      static_cast<std::size_t>(std::llround(kStreamRateQps));
  const std::size_t per_block = per_second / kStreamBlocksPerSecond;
  const auto blocks = static_cast<std::size_t>(
      std::llround(kStreamHorizonS * kStreamBlocksPerSecond));
  kairos::Rng rng(seed);
  StratifiedProduction mix(per_second);
  std::vector<int> quantiles(per_second);
  for (int& b : quantiles) b = mix.Sample(rng);
  std::vector<kairos::workload::Query> queries;
  queries.reserve(per_block * blocks);
  std::vector<double> arrivals(per_block);
  std::vector<int> batches(per_block);
  for (std::size_t block = 0; block < blocks; ++block) {
    for (double& a : arrivals) {
      a = (static_cast<double>(block) + rng.Uniform()) /
          static_cast<double>(kStreamBlocksPerSecond);
    }
    std::sort(arrivals.begin(), arrivals.end());
    for (std::size_t i = 0; i < per_block; ++i) {
      batches[i] = quantiles[block % kStreamBlocksPerSecond +
                             kStreamBlocksPerSecond * i];
    }
    for (std::size_t i = per_block; i > 1; --i) {  // Fisher-Yates
      const auto j = static_cast<std::size_t>(rng.Uniform() *
                                              static_cast<double>(i));
      std::swap(batches[i - 1], batches[std::min(j, i - 1)]);
    }
    for (std::size_t i = 0; i < per_block; ++i) {
      queries.push_back({queries.size() + 1, batches[i], arrivals[i]});
    }
  }
  const std::size_t count = queries.size();
  const kairos::workload::Trace trace(std::move(queries));
  if (Status s = kairos::workload::WriteTraceCsv(trace, path); !s.ok()) {
    return s;
  }
  auto read = kairos::workload::ReadTraceCsv(path);
  if (!read.ok()) return read.status();
  std::size_t by_horizon = 0;
  for (const kairos::workload::Query& q : read->queries()) {
    if (q.arrival <= kStreamHorizonS) ++by_horizon;
  }
  if (by_horizon != count) {
    return Status::Internal("serve_stream trace has queries past the horizon");
  }
  return by_horizon;
}

// --- serve_fleet ----------------------------------------------------------

constexpr double kFleetBudget = 24.0;
constexpr double kFleetRateQps = 60.0;
constexpr double kFleetWindowS = 5.0;
constexpr double kFleetHorizonS = 8000.0;
constexpr std::size_t kFleetSampleEvery = 8;  // windows per speed sample

class ServeFleet final : public Workload {
 public:
  explicit ServeFleet(std::uint64_t seed) : seed_(seed) {}

  Status Setup(Mode mode) override {
    state_.reset();
    auto state = std::make_unique<State>();
    state->catalog = kairos::cloud::Catalog::PaperPool();
    state->traced = mode == Mode::kTraced;
    kairos::core::FleetOptions options;
    options.budget_per_hour = kFleetBudget;
    options.planner = state->traced ? kOneShotPlannerName : "KAIROS";
    options.allocator = "STATIC";
    options.seed = seed_;
    auto fleet = kairos::Fleet::Create(
        state->catalog,
        {Model("NCF"), Model("RM2"), Model("WND"), Model("MT-WND"),
         Model("DIEN"), Model("NCF", "NCF-B"), Model("WND", "WND-B"),
         Model("RM2", "RM2-B")},
        options);
    if (!fleet.ok()) return fleet.status();
    state->fleet.emplace(*std::move(fleet));
    // Stratified like plan's warm-up: with a random sample the seed moved
    // the initial plan, and with it how much work a window does.
    state->fleet->ObserveMixAll(StratifiedProduction(
        kairos::core::FleetModelOptions{}.monitor_warmup));
    {
      ScopedSpan span(ActiveRecorder(), SpanKind::kPlanAll);
      auto plan = state->fleet->PlanAll();
      if (!plan.ok()) return plan.status();
      state->plan = *std::move(plan);
    }
    if (Status s = CheckPlan(state->plan, state->catalog); !s.ok()) return s;
    state_ = std::move(state);
    return Status::Ok();
  }

  StatusOr<PassResult> Run() override {
    if (state_ == nullptr) return Status::FailedPrecondition("no set-up");
    SpanRecorder* recorder = ActiveRecorder();
    kairos::core::FleetServeOptions options;
    options.duration_s = kFleetHorizonS;
    options.base_rate_qps = kFleetRateQps;
    options.window_s = kFleetWindowS;
    options.controller = state_->traced ? kControllerName : "QOS";
    options.keep_latencies = false;
    // Shards advance on the driving thread. With the default pool (one
    // worker per core) the pass wall spread 26% between two sets of runs of
    // the same code, under contention on other cores that no speed sample
    // taken at a barrier could see (see METRICS.md).
    options.serve_threads = 1;
    options.shifts = {{0.30 * kFleetHorizonS, "RM2", 3.0},
                      {0.45 * kFleetHorizonS, "WND", 2.5},
                      {0.60 * kFleetHorizonS, "RM2", 1.0},
                      {0.75 * kFleetHorizonS, "WND", 1.0}};
    // One step is one window barrier to the next. The interval before the
    // first barrier also builds the engines, so it is not a step. Speed
    // samples run at barriers, outside any step, and only untraced (a
    // traced pass keeps its spans free of them).
    PassResult r;
    r.step_ms.reserve(static_cast<std::size_t>(kFleetHorizonS /
                                               kFleetWindowS));
    SpeedSampler speed;
    double sampled_s = 0.0;
    std::size_t barriers = 0;
    Clock::time_point left = Clock::now();
    options.window_probe = [&](std::size_t model,
                               const kairos::serving::WindowedMetrics&) {
      if (model != 0) return;
      const Clock::time_point arrived = Clock::now();
      if (barriers > 0) {
        r.step_ms.push_back(
            std::chrono::duration<double, std::milli>(arrived - left).count());
      }
      ++barriers;
      if (recorder != nullptr) {
        recorder->SetStep(barriers);
      } else if (barriers % kFleetSampleEvery == 0) {
        sampled_s += speed.Sample();
      }
      left = Clock::now();
    };
    const Clock::time_point start = Clock::now();
    StatusOr<kairos::core::FleetServeResult> served =
        Status::Internal("ServeAll did not run");
    {
      ScopedSpan span(recorder, SpanKind::kServeAll);
      served = state_->fleet->ServeAll(state_->plan, options);
    }
    r.wall_s = MsSince(start) / 1000.0 - sampled_s;
    r.time_scale = speed.Scale();
    for (double& ms : r.step_ms) ms *= r.time_scale;
    if (!served.ok()) return served.status();
    const kairos::core::FleetServeResult& result = *served;

    Fingerprint fp;
    double offered = 0.0, good = 0.0, failed = 0.0;
    for (const kairos::core::FleetModelServe& m : result.models) {
      const kairos::serving::RunResult& t = m.totals;
      std::size_t w_offered = 0, w_served = 0, w_shed = 0, w_rejected = 0;
      for (const kairos::serving::WindowedMetrics& w : m.windows) {
        w_offered += w.offered;
        w_served += w.served;
        w_shed += w.shed;
        w_rejected += w.rejected;
      }
      if (w_offered != t.offered || w_served != t.served ||
          w_shed != t.shed || w_rejected != t.rejected ||
          t.served + t.shed + t.rejected > t.offered) {
        return Status::Internal("serve_fleet ledger of " + m.model +
                                " does not balance");
      }
      const std::size_t backlog = t.offered - t.served - t.shed - t.rejected;
      offered += static_cast<double>(t.offered);
      good += static_cast<double>(t.served - t.violations);
      failed += static_cast<double>(t.shed + t.rejected + backlog);
      for (const std::size_t v : {t.offered, t.served, t.shed, t.rejected,
                                  t.violations, m.windows.size()}) {
        fp.Add(v);
      }
      fp.AddDouble(t.mean_ms);
    }
    double shares = 0.0;
    for (const double share : result.final_shares_per_hour) {
      shares += share;
      fp.AddDouble(share);
    }
    if (shares > kFleetBudget + 1e-9) {
      return Status::Internal("serve_fleet final shares overspend the budget");
    }
    for (const kairos::core::FleetControlEvent& e : result.control_log) {
      fp.AddDouble(e.time);
      fp.Add(static_cast<std::uint64_t>(e.kind));
    }
    fp.Add(result.reallocations);
    AddPlan(state_->plan, fp);

    r.fingerprint = fp.value();
    r.offered = offered;
    r.goodput_qps = good / kFleetHorizonS;
    r.sim_qps = offered / r.wall_s;
    r.failed_share = failed / offered;
    r.windows = static_cast<double>(result.models.front().windows.size());
    r.reallocations = static_cast<double>(result.reallocations);
    r.attempted = barriers;
    state_.reset();
    return r;
  }

 private:
  struct State {
    kairos::cloud::Catalog catalog;
    std::optional<kairos::core::Fleet> fleet;
    kairos::core::FleetPlan plan;
    bool traced = false;
  };

  std::uint64_t seed_;
  std::unique_ptr<State> state_;
};

// --- plan -----------------------------------------------------------------

constexpr double kPlanBudgets[] = {8.0, 12.0, 15.0};

class PlanSweep final : public Workload {
 public:
  explicit PlanSweep(std::uint64_t seed) : seed_(seed) {}

  Status Setup(Mode mode) override {
    state_.reset();
    auto state = std::make_unique<State>();
    state->catalog = kairos::cloud::Catalog::PaperPool();
    state->observed = mode != Mode::kPlain;
    for (const double budget : kPlanBudgets) {
      kairos::core::FleetOptions options;
      options.budget_per_hour = budget;
      options.planner = state->observed ? kSearchPlannerName : "KAIROS+";
      options.allocator = "MARGINAL";
      // Serial planning: the default pool bought 1.01-1.12x on this sweep
      // (one model dominates), and samples of machine speed taken on pool
      // threads were too noisy to calibrate against (see METRICS.md).
      options.planning_threads = 1;
      options.seed = seed_;
      auto fleet = kairos::Fleet::Create(
          state->catalog,
          {Model("NCF"), Model("RM2"), Model("WND"), Model("MT-WND"),
           Model("DIEN")},
          options);
      if (!fleet.ok()) return fleet.status();
      state->fleets.push_back(*std::move(fleet));
      state->fleets.back().ObserveMixAll(
          StratifiedProduction(
              kairos::core::FleetModelOptions{}.monitor_warmup));
    }
    state_ = std::move(state);
    return Status::Ok();
  }

  StatusOr<PassResult> Run() override {
    if (state_ == nullptr) return Status::FailedPrecondition("no set-up");
    SpanRecorder* recorder = ActiveRecorder();
    PassResult r;
    Fingerprint fp;
    double evals = 0.0;
    double qps = 0.0;
    for (const kairos::core::Fleet& fleet : state_->fleets) {
      StatusOr<kairos::core::FleetPlan> plan =
          Status::Internal("PlanAll did not run");
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span(recorder, SpanKind::kPlanAll);
        plan = fleet.PlanAll();
      }
      r.wall_s += MsSince(start) / 1000.0;
      r.attempted += fleet.size();
      if (!plan.ok()) return plan.status();
      if (Status s = CheckPlan(*plan, state_->catalog); !s.ok()) return s;
      for (const kairos::core::FleetModelPlan& m : plan->models) {
        evals += static_cast<double>(m.outcome.evaluations);
        qps += m.outcome.expected_qps;
      }
      AddPlan(*plan, fp);
    }
    if (state_->observed) {
      // PlanAll's work happens inside the library, so the untraced planner
      // wrappers take the speed samples, on this thread, before each probe
      // and evaluation.
      const ObservationTotals seen = Observations::Global().Snapshot();
      r.wall_s -= seen.unit_s;
      if (seen.units > 0) {
        r.time_scale =
            kNominalUnitS * static_cast<double>(seen.units) / seen.unit_s;
      }
      r.step_ms = seen.eval_ms;
      for (double& ms : r.step_ms) ms *= r.time_scale;
      if (static_cast<double>(r.step_ms.size()) != evals) {
        return Status::Internal(
            "plan spent " + std::to_string(evals) + " evaluations but " +
            std::to_string(r.step_ms.size()) + " passed the eval wrapper");
      }
    }
    r.fingerprint = fp.value();
    r.goodput_qps = qps;
    r.plan_evals = evals;
    r.plan_qps = qps;
    r.failed_share = 0.0;  // a non-OK plan fails the run above
    state_.reset();
    return r;
  }

 private:
  struct State {
    kairos::cloud::Catalog catalog;
    std::vector<kairos::core::Fleet> fleets;
    bool observed = false;
  };

  std::uint64_t seed_;
  std::unique_ptr<State> state_;
};

}  // namespace

StatusOr<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                 std::uint64_t seed,
                                                 const std::string& input_dir) {
  if (name == "serve_stream") {
    std::error_code ec;
    std::filesystem::create_directories(input_dir, ec);
    if (ec) return Status::FailedPrecondition("cannot create " + input_dir);
    const std::string path =
        input_dir + "/serve_stream-" + std::to_string(seed) + ".csv";
    auto by_horizon = WriteStreamTrace(seed, path);
    if (!by_horizon.ok()) return by_horizon.status();
    return std::unique_ptr<Workload>(
        std::make_unique<ServeStream>(seed, path, *by_horizon));
  }
  if (name == "serve_fleet") {
    return std::unique_ptr<Workload>(std::make_unique<ServeFleet>(seed));
  }
  if (name == "plan") {
    return std::unique_ptr<Workload>(std::make_unique<PlanSweep>(seed));
  }
  return Status::NotFound("unknown workload \"" + name +
                          "\"; workloads: serve_stream, serve_fleet, plan");
}

}  // namespace perfbench
