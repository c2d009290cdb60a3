#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "chaos/injector.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "control/controllers.h"
#include "latency/model_zoo.h"
#include "rpc/netem.h"
#include "sim/simulator.h"
#include "workload/query_source.h"

namespace kairos::core {
namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/// Cheapest way to rent one base instance, the floor for a feasible share.
StatusOr<double> MinBasePrice(const cloud::Catalog& catalog) {
  double min_price = std::numeric_limits<double>::infinity();
  for (cloud::TypeId t = 0; t < catalog.size(); ++t) {
    if (catalog[t].is_base) min_price = std::min(min_price, catalog[t].price_per_hour);
  }
  if (!std::isfinite(min_price)) {
    return Status::InvalidArgument("catalog has no base instance type");
  }
  return min_price;
}

/// Builds a named per-model trace; nullptr for "" (caller-provided mix).
StatusOr<std::unique_ptr<workload::BatchDistribution>> MakeTrace(
    const std::string& name) {
  const std::string canonical = CanonicalName(name);
  if (canonical.empty()) {
    return std::unique_ptr<workload::BatchDistribution>(nullptr);
  }
  if (canonical == "PRODUCTION") {
    return std::unique_ptr<workload::BatchDistribution>(
        std::make_unique<workload::LogNormalBatches>(
            workload::LogNormalBatches::Production()));
  }
  if (canonical == "GAUSSIAN") {
    return std::unique_ptr<workload::BatchDistribution>(
        std::make_unique<workload::GaussianBatches>(
            workload::GaussianBatches::Default()));
  }
  return Status::NotFound("unknown trace \"" + name +
                          "\"; named traces: GAUSSIAN, PRODUCTION, and the "
                          "file-backed STREAM / TRACE (with trace_path set; "
                          "\"\" keeps the caller-provided mix)");
}

/// True for the trace names that replay a CSV named by trace_path.
bool IsFileBackedTrace(const std::string& canonical) {
  return canonical == "STREAM" || canonical == "TRACE";
}

/// Wires the real-measurement evaluator of an evaluation-driven backend
/// (KAIROS+, BRUTE-FORCE) into `request`: configs are measured against a
/// snapshot of `monitor`'s mix in a nested simulation. An empty window
/// comes back as a Status without model context — each caller prefixes
/// the model name exactly once. Shared by PlanAll and the in-serve
/// rebalance so the two paths cannot drift.
Status WireEvaluator(const Kairos& session,
                     const workload::QueryMonitor& monitor,
                     PlanRequest& request) {
  auto mix = monitor.Snapshot();
  if (!mix.ok()) return mix.status();
  request.eval = [&session,
                  mix = *std::move(mix)](const cloud::Config& config) {
    serving::EvalOptions eval_options;
    return session.MeasureThroughput(config, mix, eval_options).qps;
  };
  return Status::Ok();
}

/// The N-1 core budget of one model (DESIGN.md Sec. 11), shared by the
/// initial deployment and every in-serve replan so the two cannot drift.
struct CoreBudget {
  std::size_t domains = 1;   ///< failure domains, >= 1
  bool n_minus_one = false;  ///< plan the core, then PadForDomainLoss
  double budget = 0.0;       ///< what the core is planned inside, $/hr
};

/// An N-1 sized model plans its core inside (d-1)/d of `share` — but
/// never below its floor (the cheapest feasible deployment), so a small
/// share shrunk by (d-1)/d cannot turn a feasible model infeasible.
/// Any other model plans inside the whole share.
CoreBudget CoreBudgetFor(const FleetModelOptions& model, double share,
                         double floor) {
  CoreBudget core;
  core.domains = std::max<std::size_t>(model.failure_domains, 1);
  core.n_minus_one = model.plan_n_minus_one && core.domains >= 2;
  core.budget = core.n_minus_one
                    ? std::max(share * static_cast<double>(core.domains - 1) /
                                   static_cast<double>(core.domains),
                               std::min(share, floor))
                    : share;
  return core;
}

/// Chaos-aware N-1 padding (DESIGN.md Sec. 11). Instances are assigned
/// to `domains` failure domains round-robin in launch order, so a
/// contiguous block of m instances of one type loses at most
/// ceil(m / domains) of them to a single domain outage. Padding each
/// type's planned count c to the smallest m with m - ceil(m / domains)
/// >= c therefore keeps the planned capacity alive through the loss of
/// the largest domain. The padded config is trimmed back — most
/// expensive type first, never below the planned core — until it fits
/// `share_per_hour`, so the share invariant (config cost <= share)
/// still holds.
cloud::Config PadForDomainLoss(const cloud::Config& core,
                               std::size_t domains, double share_per_hour,
                               const cloud::Catalog& catalog) {
  if (domains < 2) return core;
  std::vector<int> counts(core.NumTypes());
  std::vector<int> padded(core.NumTypes());
  for (cloud::TypeId t = 0; t < core.NumTypes(); ++t) {
    counts[t] = core.Count(t);
    int m = counts[t];
    if (m > 0) {
      const int d = static_cast<int>(domains);
      while (m - (m + d - 1) / d < counts[t]) ++m;
    }
    padded[t] = m;
  }
  double cost = cloud::Config(padded).CostPerHour(catalog);
  while (cost > share_per_hour + 1e-9) {
    cloud::TypeId trim = core.NumTypes();
    double trim_price = -1.0;
    for (cloud::TypeId t = 0; t < core.NumTypes(); ++t) {
      if (padded[t] > counts[t] && catalog[t].price_per_hour > trim_price) {
        trim = t;
        trim_price = catalog[t].price_per_hour;
      }
    }
    if (trim == core.NumTypes()) break;  // back at the core: stop trimming
    --padded[trim];
    cost -= trim_price;
  }
  return cloud::Config(std::move(padded));
}

}  // namespace

Fleet::Fleet(const cloud::Catalog& catalog, FleetOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

StatusOr<Fleet> Fleet::Create(const cloud::Catalog& catalog,
                              std::vector<FleetModelOptions> models,
                              FleetOptions options) {
  if (models.empty()) {
    return Status::InvalidArgument("fleet needs at least one model");
  }
  if (options.budget_per_hour <= 0.0) {
    return Status::InvalidArgument("fleet budget must be positive, got " +
                                   FormatDollarsPerHour(options.budget_per_hour));
  }
  if (!PlannerRegistry::Global().Contains(options.planner)) {
    // Reuse the registry's error so the message lists the alternatives.
    return PlannerRegistry::Global().Build(options.planner).status();
  }
  auto allocator = AllocatorRegistry::Global().Build(options.allocator);
  if (!allocator.ok()) return allocator.status();

  // The fleet-unique serving name: the alias when given, the Table-3 name
  // otherwise. Aliases let one fleet shard the same model several times.
  const auto serve_name = [](const FleetModelOptions& m) -> const std::string& {
    return m.name.empty() ? m.model : m.name;
  };

  double total_weight = 0.0;
  for (const FleetModelOptions& m : models) {
    if (latency::TryFindModel(m.model) == nullptr) {
      return Status::NotFound("unknown model \"" + m.model +
                              "\"; Table-3 models: " +
                              latency::ModelZooNames());
    }
    if (m.weight <= 0.0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": weight must be positive");
    }
    if (m.arrival_scale <= 0.0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": arrival_scale must be positive");
    }
    if (m.qos_scale <= 0.0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": qos_scale must be positive");
    }
    if (m.monitor_warmup == 0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": monitor_warmup must be positive");
    }
    if (m.min_budget_per_hour < 0.0 || m.max_budget_per_hour < 0.0) {
      return Status::InvalidArgument(
          "model " + serve_name(m) + ": budget bounds must be non-negative");
    }
    const auto dup = std::count_if(models.begin(), models.end(),
                                   [&](const FleetModelOptions& other) {
                                     return serve_name(other) == serve_name(m);
                                   });
    if (dup > 1) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     " listed more than once");
    }
    total_weight += m.weight;
  }

  const auto min_base = MinBasePrice(catalog);
  if (!min_base.ok()) return min_base.status();

  Fleet fleet(catalog, options);
  for (const FleetModelOptions& m : models) {
    const double floor = std::max(m.min_budget_per_hour, *min_base);
    const double ceiling = m.max_budget_per_hour > 0.0
                               ? m.max_budget_per_hour
                               : std::numeric_limits<double>::infinity();
    if (floor > ceiling) {
      return Status::InvalidArgument(
          "model " + serve_name(m) + ": max budget " +
          FormatDollarsPerHour(ceiling) +
          " is below the effective floor " + FormatDollarsPerHour(floor) +
          " (cheapest base instance " + FormatDollarsPerHour(*min_base) + ")");
    }
    // File-backed traces (STREAM / TRACE) carry no batch mix of their
    // own: ObserveMix / MeasureAll fall back to the caller-provided mix
    // (nullptr entry), and ServeAll replays the file.
    std::unique_ptr<workload::BatchDistribution> mix;
    if (IsFileBackedTrace(CanonicalName(m.trace))) {
      if (m.trace_path.empty()) {
        return Status::InvalidArgument(
            "model " + serve_name(m) + ": trace \"" + m.trace +
            "\" replays a file; set trace_path to a trace CSV");
      }
    } else {
      auto trace = MakeTrace(m.trace);
      if (!trace.ok()) {
        return Status(trace.status().code(), "model " + serve_name(m) + ": " +
                                                 trace.status().message());
      }
      mix = *std::move(trace);
    }
    fleet.names_.push_back(serve_name(m));
    fleet.budgets_.push_back(options.budget_per_hour * m.weight / total_weight);
    fleet.floors_.push_back(floor);
    fleet.ceilings_.push_back(ceiling);
    fleet.mixes_.push_back(std::move(mix));
    fleet.model_options_.push_back(m);
  }

  // Surface infeasible constraints at construction time. Probe-free
  // allocators (STATIC) can run in full; probe-driven ones (MARGINAL)
  // re-split at every PlanAll(), so only their floors are checked here.
  std::vector<double> create_shares = fleet.budgets_;
  if (!(*allocator)->NeedsProbes()) {
    AllocationProblem problem;
    problem.budget_per_hour = options.budget_per_hour;
    for (std::size_t i = 0; i < models.size(); ++i) {
      problem.models.push_back(AllocModel{fleet.names_[i], models[i].weight,
                                          models[i].arrival_scale,
                                          fleet.floors_[i], fleet.ceilings_[i]});
    }
    auto shares = (*allocator)->Allocate(problem);
    if (!shares.ok()) return shares.status();
    create_shares = *std::move(shares);
  } else {
    double floor_sum = 0.0;
    for (const double floor : fleet.floors_) floor_sum += floor;
    if (floor_sum > options.budget_per_hour + 1e-9) {
      return Status::Infeasible(
          "per-model budget floors sum to " + FormatDollarsPerHour(floor_sum) +
          ", more than the global budget " +
          FormatDollarsPerHour(options.budget_per_hour) +
          " (cheapest base instance " + FormatDollarsPerHour(*min_base) +
          " per model); raise the budget or drop a model");
    }
    // Seed the sessions with a feasible prior — every floor honored, the
    // spendable remainder split by weight — so direct Session() callers
    // never see shares that together overspend the envelope. The
    // allocator re-splits on every PlanAll().
    const double spendable =
        std::max(0.0, options.budget_per_hour - floor_sum);
    for (std::size_t i = 0; i < create_shares.size(); ++i) {
      create_shares[i] =
          std::min(fleet.floors_[i] +
                       spendable * models[i].weight / total_weight,
                   fleet.ceilings_[i]);
    }
  }

  for (std::size_t i = 0; i < models.size(); ++i) {
    KairosOptions session_options;
    session_options.budget_per_hour = create_shares[i];
    session_options.qos_scale = models[i].qos_scale;
    session_options.monitor_warmup = models[i].monitor_warmup;
    session_options.seed = options.seed;
    fleet.sessions_.emplace_back(catalog, models[i].model, session_options);
  }
  return fleet;
}

std::size_t Fleet::IndexOf(const std::string& model) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == model) return i;
  }
  return kNpos;
}

const workload::BatchDistribution& Fleet::MixFor(
    std::size_t i, const workload::BatchDistribution& fallback) const {
  return mixes_[i] != nullptr ? *mixes_[i] : fallback;
}

StatusOr<const Kairos*> Fleet::Session(const std::string& model) const {
  const std::size_t i = IndexOf(model);
  if (i == kNpos) {
    return Status::NotFound("model " + model + " is not in this fleet");
  }
  return &sessions_[i];
}

StatusOr<double> Fleet::BudgetFor(const std::string& model) const {
  const std::size_t i = IndexOf(model);
  if (i == kNpos) {
    return Status::NotFound("model " + model + " is not in this fleet");
  }
  return budgets_[i];
}

Status Fleet::ObserveMix(const std::string& model,
                         const workload::BatchDistribution& mix) {
  const std::size_t i = IndexOf(model);
  if (i == kNpos) {
    return Status::NotFound("model " + model + " is not in this fleet");
  }
  sessions_[i].ObserveMix(MixFor(i, mix));
  return Status::Ok();
}

void Fleet::ObserveMixAll(const workload::BatchDistribution& mix) {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    sessions_[i].ObserveMix(MixFor(i, mix));
  }
}

StatusOr<FleetPlan> Fleet::PlanAll(const search::SearchOptions& search) const {
  auto backend = PlannerRegistry::Global().Build(options_.planner);
  if (!backend.ok()) return backend.status();
  auto allocator = AllocatorRegistry::Global().Build(options_.allocator);
  if (!allocator.ok()) return allocator.status();

  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].monitor().Count() == 0) {
      return Status::FailedPrecondition(
          "model " + names_[i] +
          ": monitor is empty; call ObserveMix before PlanAll");
    }
  }

  // Split the budget. The probe answers "what would the backend achieve
  // for model i at budget b" analytically (PlannerBackend::Probe), so the
  // MARGINAL allocator can afford one probe per candidate per increment;
  // probes of independent models run concurrently.
  AllocationProblem problem;
  problem.budget_per_hour = options_.budget_per_hour;
  problem.step_per_hour = options_.allocation_step_per_hour;
  problem.threads = options_.planning_threads;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    problem.models.push_back(AllocModel{names_[i], model_options_[i].weight,
                                        model_options_[i].arrival_scale,
                                        floors_[i], ceilings_[i]});
  }
  problem.probe = [&](std::size_t i, double budget) -> StatusOr<double> {
    const Kairos& session = sessions_[i];
    PlannerContext ctx{&catalog_, &session.truth(), session.qos_ms(), budget};
    PlanRequest request;
    request.monitor = &session.monitor();
    request.search = search;
    auto outcome = (*backend)->Probe(ctx, request);
    if (!outcome.ok()) return outcome.status();
    return outcome->expected_qps;
  };
  auto shares = (*allocator)->Allocate(problem);
  if (!shares.ok()) return shares.status();

  // Plan every model inside its share, concurrently: sessions, planner
  // backends and allocators are stateless const objects, and each worker
  // writes only its own slot.
  const std::size_t n = sessions_.size();
  std::vector<Status> statuses(n);
  std::vector<PlannerOutcome> outcomes(n);
  ParallelFor(n, options_.planning_threads, [&](std::size_t i) {
    const Kairos& session = sessions_[i];
    PlannerContext ctx{&catalog_, &session.truth(), session.qos_ms(),
                       (*shares)[i]};
    PlanRequest request;
    request.monitor = &session.monitor();
    request.search = search;
    if ((*backend)->NeedsEvaluations()) {
      // Evaluate against the model's own monitored workload. The empty-
      // window precondition was checked above, so a failure here would be
      // a programming error — still surfaced as this model's Status.
      // The result loop below adds the "model X:" prefix.
      statuses[i] = WireEvaluator(session, session.monitor(), request);
      if (!statuses[i].ok()) return;
    }
    auto outcome = (*backend)->Plan(ctx, request);
    if (!outcome.ok()) {
      statuses[i] = outcome.status();
    } else {
      outcomes[i] = *std::move(outcome);
    }
  });

  FleetPlan plan;
  plan.budget_per_hour = options_.budget_per_hour;
  for (std::size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(),
                    "model " + names_[i] + ": " + statuses[i].message());
    }
    FleetModelPlan model_plan;
    model_plan.model = names_[i];
    model_plan.budget_per_hour = (*shares)[i];
    model_plan.qos_ms = sessions_[i].qos_ms();
    model_plan.outcome = std::move(outcomes[i]);
    model_plan.cost_per_hour = model_plan.outcome.config.CostPerHour(catalog_);
    plan.total_cost_per_hour += model_plan.cost_per_hour;
    plan.models.push_back(std::move(model_plan));
  }
  return plan;
}

StatusOr<FleetServeResult> Fleet::ServeAll(const FleetPlan& plan,
                                           FleetServeOptions options) const {
  if (options.duration_s <= 0.0 || options.base_rate_qps <= 0.0 ||
      options.window_s <= 0.0) {
    return Status::InvalidArgument(
        "ServeAll needs positive duration_s, base_rate_qps and window_s");
  }
  if (options.realloc_period_s < 0.0) {
    return Status::InvalidArgument("realloc_period_s must be >= 0");
  }
  if (options.admission.max_queue_s < 0.0 ||
      options.admission.deadline_s < 0.0) {
    return Status::InvalidArgument(
        "FleetServeOptions::admission: max_queue_s and deadline_s must "
        "be >= 0");
  }
  std::vector<std::size_t> indices;
  indices.reserve(plan.models.size());
  for (const FleetModelPlan& model_plan : plan.models) {
    const std::size_t i = IndexOf(model_plan.model);
    if (i == kNpos) {
      return Status::NotFound("model " + model_plan.model +
                              " is not in this fleet");
    }
    indices.push_back(i);
  }
  for (const FleetLoadShift& shift : options.shifts) {
    // Must name a model of the *served plan* — a fleet member outside
    // the plan would be a silently dropped no-op, not a load change.
    const auto in_plan = std::find_if(
        indices.begin(), indices.end(),
        [&](std::size_t i) { return names_[i] == shift.model; });
    if (in_plan == indices.end()) {
      return Status::NotFound("load shift at " + std::to_string(shift.time_s) +
                              "s names model " + shift.model +
                              ", which is not in the served plan");
    }
    if (shift.arrival_scale <= 0.0) {
      return Status::InvalidArgument("load shift for " + shift.model +
                                     ": arrival_scale must be positive");
    }
    if (shift.time_s < 0.0 || shift.time_s > options.duration_s) {
      return Status::InvalidArgument(
          "load shift for " + shift.model + " at " +
          std::to_string(shift.time_s) + "s is outside the horizon");
    }
  }

  // Resolve the control plane. "" keeps the legacy wiring: a PERIODIC
  // controller at realloc_period_s when positive, no control loop
  // otherwise (frozen allocation). A named controller that declares a
  // "period_s" knob inherits realloc_period_s unless overridden.
  std::unique_ptr<control::FleetController> controller;
  if (options.controller.empty() && !options.controller_knobs.empty()) {
    // Knobs without a controller would be dropped silently — the legacy
    // PERIODIC wiring takes no knobs; misconfiguration fails loudly like
    // every other knob path.
    return Status::InvalidArgument(
        "controller_knobs were given but no controller is named; set "
        "FleetServeOptions::controller (registered controllers: " +
        JoinComma(control::ControllerRegistry::Global().ListNames()) + ")");
  }
  if (!options.controller.empty()) {
    control::KnobMap knobs = options.controller_knobs;
    auto info = control::ControllerRegistry::Global().Info(options.controller);
    if (!info.ok()) return info.status();
    if (options.realloc_period_s > 0.0) {
      // The period must land somewhere: a controller without a period_s
      // knob (QOS, BACKLOG, DRIFT) cannot honor it, and dropping it
      // silently would strip the periodic safety net the caller asked
      // for. COMPOSITE chains such a controller with a PERIODIC net.
      if (info->knobs.count("period_s") == 0) {
        return Status::InvalidArgument(
            "controller " + info->name +
            " has no period_s knob, so realloc_period_s would be ignored; "
            "drop it, or chain the controller with a PERIODIC safety net "
            "via COMPOSITE");
      }
      if (knobs.count("period_s") == 0) {
        knobs["period_s"] = options.realloc_period_s;
      }
    }
    auto built =
        control::ControllerRegistry::Global().Build(options.controller, knobs);
    if (!built.ok()) return built.status();
    controller = *std::move(built);
  } else if (options.realloc_period_s > 0.0) {
    controller = control::MakePeriodicController(options.realloc_period_s);
  }

  // Resolve the chaos plane. No injector means no chaos code runs at all:
  // no extra barriers, no fault reads, no network fabric — the run is
  // bit-identical to a chaos-free build (tests/chaos_test.cc).
  if (!options.chaos.empty() && options.injector != nullptr) {
    return Status::InvalidArgument(
        "both FleetServeOptions::chaos and ::injector are set; name a "
        "registered injector or pass a programmatic one, not both");
  }
  if (options.chaos.empty() && !options.chaos_knobs.empty()) {
    return Status::InvalidArgument(
        "chaos_knobs were given but no chaos injector is named; set "
        "FleetServeOptions::chaos (registered injectors: " +
        JoinComma(chaos::ChaosRegistry::Global().ListNames()) + ")");
  }
  std::shared_ptr<chaos::ChaosInjector> injector = options.injector;
  if (!options.chaos.empty()) {
    auto built = chaos::ChaosRegistry::Global().Build(options.chaos,
                                                      options.chaos_knobs);
    if (!built.ok()) return built.status();
    injector = *std::move(built);
  }

  auto backend = PlannerRegistry::Global().Build(options_.planner);
  if (!backend.ok()) return backend.status();
  auto allocator = AllocatorRegistry::Global().Build(options_.allocator);
  if (!allocator.ok()) return allocator.status();
  if (controller != nullptr) {
    for (const std::size_t i : indices) {
      if (sessions_[i].monitor().Count() == 0) {
        return Status::FailedPrecondition(
            "model " + names_[i] +
            ": monitor is empty; call ObserveMix before ServeAll with a "
            "reallocation controller");
      }
    }
  }

  const std::size_t n = plan.models.size();
  // The telemetry plane (DESIGN.md Sec. 13). `tel` == nullptr disables
  // everything telemetry-related — no instrument attach, no spans, no
  // snapshots — so a disabled run is bit-identical to a build without
  // the subsystem (tests/telemetry_test.cc).
  telemetry::Telemetry* const tel = options.telemetry;
  if (tel != nullptr) {
    if (tel->num_model_shards() != n) {
      return Status::InvalidArgument(
          "FleetServeOptions::telemetry was created for " +
          std::to_string(tel->num_model_shards()) +
          " model shards, but the served plan has " + std::to_string(n));
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (tel->tracer().shard_names()[j] != names_[indices[j]]) {
        return Status::InvalidArgument(
            "FleetServeOptions::telemetry shard " + std::to_string(j) +
            " is named \"" + tel->tracer().shard_names()[j] +
            "\" but the served plan's model " + std::to_string(j) +
            " is \"" + names_[indices[j]] +
            "\"; create the Telemetry with the plan's model names in "
            "plan order");
      }
    }
  }
  // Each model is one shard: its own engine on its own clock. Shards meet
  // only at barriers — the merged grid of window boundaries and
  // reallocation points — where the driving thread snapshots windows and
  // re-splits the budget; between barriers they share no mutable state, so
  // they advance concurrently and the outcome is bit-identical for every
  // serve_threads value (and to the serial walk). Clocks are declared
  // before the engines so in-flight events (which hold engine pointers)
  // are freed after the engines themselves.
  std::vector<std::unique_ptr<sim::Simulator>> clocks;
  std::vector<std::unique_ptr<serving::Engine>> engines;
  std::vector<std::unique_ptr<workload::QuerySource>> streams;
  std::vector<std::vector<serving::WindowedMetrics>> windows(n);
  clocks.reserve(n);
  engines.reserve(n);
  streams.reserve(n);
  if (options.window_s > 0.0) {
    // Reserve the whole window schedule up front so barrier snapshots
    // never reallocate mid-run (part of the zero-steady-state-alloc
    // contract the sustained perf gate asserts).
    const auto expected = static_cast<std::size_t>(
        options.duration_s / options.window_s) + 2;
    for (std::size_t j = 0; j < n; ++j) windows[j].reserve(expected);
  }

  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = indices[j];
    cloud::Config config = plan.models[j].outcome.config;
    const double share = plan.models[j].budget_per_hour;
    const CoreBudget core_budget =
        CoreBudgetFor(model_options_[i], share, floors_[i]);
    if (core_budget.n_minus_one) {
      // Chaos-aware N-1 sizing: re-plan the core inside its core budget,
      // then pad each type so losing the largest failure domain leaves
      // the core intact. replan_model below applies the same rule, so
      // in-serve replans keep the deployment N-1 sized.
      PlannerContext ctx{&catalog_, &sessions_[i].truth(),
                         sessions_[i].qos_ms(), core_budget.budget};
      PlanRequest request;
      request.monitor = &sessions_[i].monitor();
      request.search = options.search;
      if ((*backend)->NeedsEvaluations()) {
        const Status wired =
            WireEvaluator(sessions_[i], sessions_[i].monitor(), request);
        if (!wired.ok()) {
          return Status(wired.code(),
                        "model " + names_[i] + ": " + wired.message());
        }
      }
      auto core = (*backend)->Plan(ctx, request);
      if (!core.ok()) {
        return Status(core.status().code(),
                      "model " + names_[i] + ": " + core.status().message());
      }
      config = PadForDomainLoss(core->config, core_budget.domains, share,
                                catalog_);
    }
    serving::EngineOptions engine_options;
    // Overload is an expected transient here (that is what reallocation
    // reacts to), so the batch early-abort heuristic is off.
    engine_options.run.abort_violation_fraction = 0.0;
    engine_options.run.keep_latencies = options.keep_latencies;
    engine_options.admission = options.admission;
    engine_options.launch_lag_s = options.launch_lag_s;
    engine_options.failure_domains = core_budget.domains;
    engine_options.seed = options_.seed + 1000003 * (j + 1);
    clocks.push_back(std::make_unique<sim::Simulator>());
    auto engine =
        sessions_[i].Deploy(config, engine_options, clocks.back().get());
    if (!engine.ok()) return engine.status();

    workload::QuerySourceSpec source_spec;
    const std::string trace_name =
        CanonicalName(model_options_[i].trace);
    if (trace_name == "STREAM") {
      source_spec.source = "STREAM";
      source_spec.path = model_options_[i].trace_path;
      source_spec.chunk_bytes = model_options_[i].trace_chunk_bytes;
    } else if (trace_name == "TRACE") {
      // The materialized oracle of the STREAM path: same file, read
      // eagerly through the same parser, replayed from memory.
      auto trace = workload::ReadTraceCsv(model_options_[i].trace_path);
      if (!trace.ok()) {
        return Status(trace.status().code(),
                      "model " + names_[i] + ": " + trace.status().message());
      }
      source_spec.source = "TRACE";
      source_spec.trace = *std::move(trace);
    } else {
      source_spec.source = trace_name.empty() ? "PRODUCTION" : trace_name;
    }
    source_spec.rate_qps =
        options.base_rate_qps * model_options_[i].arrival_scale;
    auto stream = workload::QuerySourceRegistry::Global().Build(source_spec);
    if (!stream.ok()) {
      return Status(stream.status().code(),
                    "model " + names_[i] + ": " + stream.status().message());
    }
    const Status attached = (*engine)->SubmitSource(**stream);
    if (!attached.ok()) return attached;
    engines.push_back(*std::move(engine));
    streams.push_back(*std::move(stream));
  }

  // Attach instruments after every engine exists: the vector is sized
  // once, so the pointers the engines hold stay valid for the whole run.
  std::vector<telemetry::EngineInstruments> instruments;
  if (tel != nullptr) {
    instruments.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      instruments.push_back(tel->InstrumentsFor(j));
      engines[j]->SetTelemetry(&instruments[j]);
    }
  }

  // Load shifts are per-shard events: scheduled on the owning shard's own
  // clock, they fire inside that shard's barrier-to-barrier advance.
  for (const FleetLoadShift& shift : options.shifts) {
    for (std::size_t j = 0; j < n; ++j) {
      if (names_[indices[j]] != shift.model) continue;
      serving::Engine* engine = engines[j].get();
      const double scale = shift.arrival_scale;
      clocks[j]->At(shift.time_s, [engine, scale] {
        (void)engine->SetArrivalScale(scale);
      });
    }
  }

  // The chaos plane. Serving names in plan order label chaos events; the
  // fabric vector owns each model's installed degraded NetworkModel (the
  // engine only borrows a pointer). Faults are applied through this
  // adapter at barriers, on the driving thread, with every shard
  // quiesced, so chaos runs stay bit-identical for every serve_threads.
  std::vector<std::string> serve_names(n);
  for (std::size_t j = 0; j < n; ++j) serve_names[j] = names_[indices[j]];
  std::vector<std::unique_ptr<rpc::NetworkModel>> fabrics(n);
  class ShardChaosTarget final : public chaos::ChaosTarget {
   public:
    ShardChaosTarget(const std::vector<std::unique_ptr<serving::Engine>>& e,
                     const std::vector<std::string>& names,
                     std::vector<std::unique_ptr<rpc::NetworkModel>>& f)
        : engines_(e), names_(names), fabrics_(f) {}
    std::size_t NumModels() const override { return engines_.size(); }
    const std::string& ModelName(std::size_t m) const override {
      return names_[m];
    }
    std::size_t LiveInstances(std::size_t m) const override {
      return engines_[m]->AssignableInstances();
    }
    std::size_t Preempt(std::size_t m, std::size_t count,
                        double notice_s) override {
      return engines_[m]->PreemptInstances(count, notice_s);
    }
    std::size_t Kill(std::size_t m, std::size_t count) override {
      return engines_[m]->KillInstances(count);
    }
    std::size_t NumDomains(std::size_t m) const override {
      return engines_[m]->NumDomains();
    }
    std::size_t PreemptDomain(std::size_t m, std::size_t domain,
                              double notice_s) override {
      return engines_[m]->PreemptDomain(domain, notice_s);
    }
    std::size_t KillDomain(std::size_t m, std::size_t domain) override {
      return engines_[m]->KillDomain(domain);
    }
    void DegradeNetwork(std::size_t m,
                        const rpc::NetworkModel& net) override {
      fabrics_[m] = std::make_unique<rpc::NetworkModel>(net);
      engines_[m]->SetNetwork(fabrics_[m].get());
    }
    void RestoreNetwork(std::size_t m) override {
      engines_[m]->SetNetwork(nullptr);
    }

   private:
    const std::vector<std::unique_ptr<serving::Engine>>& engines_;
    const std::vector<std::string>& names_;
    std::vector<std::unique_ptr<rpc::NetworkModel>>& fabrics_;
  };
  ShardChaosTarget chaos_target(engines, serve_names, fabrics);
  if (injector != nullptr) {
    const chaos::ChaosSchedule schedule{options.duration_s, options.window_s,
                                        options_.seed, n};
    const Status armed = injector->Arm(schedule);
    if (!armed.ok()) return armed;
  }

  // Live batch-mix monitors, one per shard, fed in-shard (one Observe per
  // arrival, between barriers, by the shard's own worker) so they stay
  // deterministic under any serve_threads. Their planning reference is
  // the session monitor's mean — what the initial plan was built against;
  // a kResetMonitor swaps the shard's planning mix to this live window.
  // Only mix-reading controllers (DRIFT, a COMPOSITE containing it) pay
  // the per-arrival tap; everyone else keeps the arrival path untouched.
  std::vector<workload::QueryMonitor> live_monitors;
  if (controller != nullptr && controller->NeedsLiveMix()) {
    live_monitors.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = indices[j];
      live_monitors.emplace_back(model_options_[i].monitor_warmup);
      live_monitors.back().MarkPlanningReference(
          sessions_[i].monitor().MeanBatch());
      engines[j]->SetMonitorTap(&live_monitors.back());
    }
  }

  // The barrier grid: window boundaries shared by every model (the horizon
  // always closes the last, possibly partial, window) merged with the
  // controller's own decision times. Boundaries are computed as k * width
  // — not accumulated — so a non-representable width cannot drift into a
  // duplicate boundary just below the horizon; a coinciding window and
  // decision boundary runs the window snapshot first, so controllers see
  // the freshly closed window.
  enum : unsigned { kWindowBarrier = 1u, kDecisionBarrier = 2u,
                    kChaosBarrier = 4u };
  std::map<Time, unsigned> barriers;
  for (std::size_t k = 1;; ++k) {
    const double t = static_cast<double>(k) * options.window_s;
    if (t >= options.duration_s - 1e-9) break;
    barriers[t] |= kWindowBarrier;
  }
  barriers[options.duration_s] |= kWindowBarrier;
  if (controller != nullptr) {
    const control::ControlSchedule schedule{options.duration_s,
                                            options.window_s};
    for (const Time t : controller->DecisionTimes(schedule)) {
      if (t <= 0.0 || t >= options.duration_s - 1e-9) continue;
      barriers[t] |= kDecisionBarrier;
    }
  }
  if (injector != nullptr) {
    // Armed fault times become barriers of their own, so faults land at
    // their scheduled time, not rounded to the next window boundary.
    // Faults at t <= 0 are applied by the pre-loop drain below.
    for (const Time t : injector->FaultTimes()) {
      if (t <= 0.0 || t >= options.duration_s - 1e-9) continue;
      barriers[t] |= kChaosBarrier;
    }
  }

  // Control-plane state. The planning mix of model j starts as its
  // session monitor (what the initial plan was built against) and moves
  // to the live sliding window after a kResetMonitor.
  std::size_t reallocations = 0;
  std::size_t monitor_resets = 0;
  std::size_t respreads = 0;
  std::size_t failovers = 0;
  std::size_t shed_actions = 0;
  // The loan ledger (kBorrowBudget, DESIGN.md Sec. 11): per borrower, the
  // (donor, $/hr) grants currently outstanding. Every grant is repaid —
  // by an amount-0 action, by a reallocation re-deriving every share, or
  // by the horizon force-repay — so borrowed == repaid holds exactly.
  // The reported totals fold `loan_events` once, in borrow order, at the
  // end of the run: summing the same grants through two independently
  // ordered accumulators could differ in the last ulp, and the
  // conservation invariant is asserted bit-for-bit.
  std::size_t borrows = 0;
  std::size_t paybacks = 0;
  struct LoanEvent {
    double granted = 0.0;  ///< $/hr moved to the borrower at grant time
    bool repaid = false;
  };
  std::vector<LoanEvent> loan_events;
  std::vector<std::vector<std::size_t>> loan_event_ids(n);  // per borrower
  std::vector<std::vector<std::pair<std::size_t, double>>> loans(n);
  std::vector<FleetControlEvent> control_log;
  std::vector<FleetChaosEvent> chaos_log;
  /// Engine fault-ledger entries already copied into chaos_log, per model.
  std::vector<std::size_t> faults_drained(n, 0);
  std::vector<double> shares(n);
  for (std::size_t j = 0; j < n; ++j) {
    shares[j] = plan.models[j].budget_per_hour;
  }
  std::vector<const workload::QueryMonitor*> plan_monitors(n);
  for (std::size_t j = 0; j < n; ++j) {
    plan_monitors[j] = &sessions_[indices[j]].monitor();
  }
  Status control_status;  // first failure inside the loop, if any
  Time last_realloc_time = 0.0;
  std::vector<std::size_t> offered_at_realloc(n, 0);

  // Re-plans model j inside `budget` against its planning mix and
  // reconfigures its live engine in place. Shared by the fleet-wide
  // rebalance and the per-model kFailover recovery so the two replan
  // paths cannot drift.
  auto replan_model = [&](std::size_t j, double budget) -> Status {
    const Kairos& session = sessions_[indices[j]];
    // N-1 sized models re-plan their core and pad afterwards — the same
    // rule the initial deployment used.
    const CoreBudget core_budget =
        CoreBudgetFor(model_options_[indices[j]], budget, floors_[indices[j]]);
    PlannerContext ctx{&catalog_, &session.truth(), session.qos_ms(),
                       core_budget.budget};
    PlanRequest request;
    request.monitor = plan_monitors[j];
    request.search = options.search;
    if ((*backend)->NeedsEvaluations()) {
      // Same wiring as PlanAll, against the model's planning mix (the
      // nested measurement never touches the co-simulation clock).
      const Status wired = WireEvaluator(session, *plan_monitors[j], request);
      if (!wired.ok()) {
        return Status(wired.code(),
                      "model " + names_[indices[j]] + ": " + wired.message());
      }
    }
    std::optional<telemetry::ScopedSpan> replan_span;
    std::shared_ptr<std::atomic<std::uint64_t>> trials;
    if (tel != nullptr) {
      replan_span.emplace(&tel->tracer(), tel->fleet_shard(),
                          "fleet.replan");
      replan_span->AddArg("model", names_[indices[j]]);
      replan_span->AddArg("budget_per_hour", std::to_string(budget));
      if (request.eval != nullptr) {
        // Per-trial evaluation spans. The search evaluates on this thread;
        // the trial count accumulates in a counter shared with the
        // EvalFn's copies and lands on the fleet shard's counter once.
        trials = std::make_shared<std::atomic<std::uint64_t>>(0);
        search::EvalFn inner = std::move(request.eval);
        telemetry::TraceRecorder* const tracer = &tel->tracer();
        const std::size_t shard = tel->fleet_shard();
        const std::string model_name = names_[indices[j]];
        request.eval = [inner = std::move(inner), tracer, shard, trials,
                        model_name](const cloud::Config& config) {
          telemetry::ScopedSpan span(tracer, shard, "planner.eval");
          span.AddArg("model", model_name);
          span.AddArg("instances", std::to_string(config.TotalInstances()));
          trials->fetch_add(1, std::memory_order_relaxed);
          return inner(config);
        };
      }
    }
    auto outcome = (*backend)->Plan(ctx, request);
    if (trials != nullptr) {
      tel->metrics().Add(tel->planner_trials(), tel->fleet_shard(),
                         static_cast<double>(
                             trials->load(std::memory_order_relaxed)));
    }
    if (!outcome.ok()) {
      return Status(outcome.status().code(),
                    "model " + names_[indices[j]] + ": " +
                        outcome.status().message());
    }
    const Status reconfigured = engines[j]->Reconfigure(
        core_budget.n_minus_one
            ? PadForDomainLoss(outcome->config, core_budget.domains, budget,
                               catalog_)
            : outcome->config);
    if (!reconfigured.ok()) return reconfigured;
    // A model already moved to the live window was just replanned
    // against it: the window's current mean is the new planning-time
    // reference, or plan_mean_batch / drift would keep describing a
    // configuration this re-plan just replaced.
    if (!live_monitors.empty() && plan_monitors[j] == &live_monitors[j]) {
      live_monitors[j].MarkPlanningReference();
    }
    return Status::Ok();
  };

  // kReallocate: observed arrival rates over `interval_s` become the
  // demand weights, the global budget is re-split, each model re-planned
  // inside its new share against its planning mix, and the engines
  // reconfigured in place.
  auto rebalance = [&](double interval_s) {
    std::optional<telemetry::ScopedSpan> realloc_span;
    if (tel != nullptr) {
      realloc_span.emplace(&tel->tracer(), tel->fleet_shard(),
                           "fleet.realloc");
      realloc_span->AddArg("interval_s", std::to_string(interval_s));
    }
    AllocationProblem problem;
    problem.budget_per_hour = options_.budget_per_hour;
    problem.step_per_hour = options_.allocation_step_per_hour;
    problem.threads = options_.planning_threads;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = indices[j];
      const std::size_t offered_now = engines[j]->Offered();
      const double observed_rate =
          static_cast<double>(offered_now - offered_at_realloc[j]) /
          interval_s;
      offered_at_realloc[j] = offered_now;
      problem.models.push_back(
          AllocModel{names_[i], model_options_[i].weight,
                     std::max(observed_rate, 1e-6), floors_[i],
                     ceilings_[i]});
    }
    problem.probe = [&](std::size_t j, double budget) -> StatusOr<double> {
      const Kairos& session = sessions_[indices[j]];
      PlannerContext ctx{&catalog_, &session.truth(), session.qos_ms(),
                         budget};
      PlanRequest request;
      request.monitor = plan_monitors[j];
      request.search = options.search;
      auto outcome = (*backend)->Probe(ctx, request);
      if (!outcome.ok()) return outcome.status();
      return outcome->expected_qps;
    };
    auto split = (*allocator)->Allocate(problem);
    if (!split.ok()) {
      control_status = split.status();
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const Status replanned = replan_model(j, (*split)[j]);
      if (!replanned.ok()) {
        control_status = replanned;
        return;
      }
    }
    shares = *std::move(split);
    ++reallocations;
  };

  // Runs the chaos plane's barrier step: applies every armed fault due at
  // `t` (on this thread, shards quiesced), then copies freshly landed
  // hard kills out of each engine's fault ledger — those fire on shard
  // clocks between barriers (a notice's delayed kill), so the ledger is
  // the only deterministic way to observe them. chaos_log is re-sorted by
  // time once, after the loop.
  auto drain_chaos = [&](Time t) {
    if (injector == nullptr) return;
    if (t < options.duration_s - 1e-9) {
      for (chaos::ChaosEvent& event : injector->Apply(t, chaos_target)) {
        if (tel != nullptr) {
          tel->metrics().Add(tel->chaos_faults(), tel->fleet_shard());
          tel->tracer().EmitInstant(
              event.model < n ? event.model : tel->fleet_shard(),
              "chaos.fault",
              {{"kind", chaos::ChaosEventName(event.kind)},
               {"detail", event.detail}});
        }
        chaos_log.push_back(FleetChaosEvent{event.time, event.kind,
                                            serve_names[event.model],
                                            std::move(event.detail)});
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<serving::Engine::InstanceFault>& faults =
          engines[j]->Faults();
      for (; faults_drained[j] < faults.size(); ++faults_drained[j]) {
        const serving::Engine::InstanceFault& fault =
            faults[faults_drained[j]];
        FleetChaosEvent event;
        event.time = fault.time;
        event.kind = fault.preemption ? chaos::ChaosEventKind::kPreemption
                                      : chaos::ChaosEventKind::kInstanceDeath;
        event.model = serve_names[j];
        event.detail = "hard kill; " + std::to_string(fault.requeued) +
                       " in-flight quer" +
                       (fault.requeued == 1 ? "y" : "ies") + " requeued";
        if (tel != nullptr) {
          tel->metrics().Add(tel->chaos_faults(), tel->fleet_shard());
          tel->tracer().EmitInstant(j, "chaos.fault",
                                    {{"kind", chaos::ChaosEventName(event.kind)},
                                     {"detail", event.detail}});
        }
        chaos_log.push_back(std::move(event));
      }
    }
  };

  // Applies one barrier's worth of controller decisions. Monitor resets
  // run before the barrier's reallocation no matter how the controller
  // ordered the list — a same-barrier re-plan must read the post-reset
  // mix (under COMPOSITE a QOS-triggered reallocation can precede
  // DRIFT's resets in the list). At most one reallocation per barrier is
  // honored (a re-split already replans every model).
  auto apply_actions = [&](Time t,
                           const std::vector<control::ControlAction>& actions) {
    for (const control::ControlAction& action : actions) {
      if (action.kind != control::ControlActionKind::kResetMonitor) continue;
      if (action.model >= n) {
        control_status = Status::InvalidArgument(
            "controller " + controller->Name() +
            " reset the monitor of model index " +
            std::to_string(action.model) + ", but the served plan has " +
            std::to_string(n) + " models");
        return;
      }
      if (live_monitors.empty()) {
        // Per the FleetController contract a reset-emitting controller
        // must declare NeedsLiveMix(); silently dropping the reset here
        // would leave replans on the stale mix with no trace.
        control_status = Status::FailedPrecondition(
            "controller " + controller->Name() +
            " emitted kResetMonitor but NeedsLiveMix() is false, so no "
            "live mix exists to reset to");
        return;
      }
      // An empty live window would leave nothing to plan against; the
      // reset waits until the stream has produced samples.
      if (live_monitors[action.model].Count() == 0) continue;
      plan_monitors[action.model] = &live_monitors[action.model];
      live_monitors[action.model].MarkPlanningReference();
      ++monitor_resets;
      control_log.push_back(FleetControlEvent{
          t, action.kind, names_[indices[action.model]], action.reason});
    }
    bool reallocated_here = false;
    for (const control::ControlAction& action : actions) {
      if (action.kind != control::ControlActionKind::kReallocate) continue;
      const double interval = action.interval_s > 0.0
                                  ? action.interval_s
                                  : std::max(t - last_realloc_time, 1e-9);
      rebalance(interval);
      if (!control_status.ok()) return;
      last_realloc_time = t;
      reallocated_here = true;
      // A re-split re-derives every share from the global budget, which
      // returns all borrowed headroom to the pool: the ledger clears and
      // the cleared grants count as repaid, keeping borrowed == repaid
      // exact.
      for (std::size_t m = 0; m < n; ++m) {
        if (loans[m].empty()) continue;
        for (const std::size_t id : loan_event_ids[m]) {
          loan_events[id].repaid = true;
        }
        loan_event_ids[m].clear();
        loans[m].clear();
        ++paybacks;
      }
      control_log.push_back(
          FleetControlEvent{t, action.kind, "", action.reason});
      break;  // one re-split already replanned every model
    }
    // Loan-ledger changes (kBorrowBudget), after any reallocation (whose
    // re-split just cleared the ledger) and before the recoveries, so a
    // same-barrier kFailover replans the borrower at its enlarged share.
    // One ledger change per model per barrier (the first action wins).
    std::vector<bool> loaned(n, false);
    for (const control::ControlAction& action : actions) {
      if (action.kind != control::ControlActionKind::kBorrowBudget) continue;
      if (action.model >= n) {
        control_status = Status::InvalidArgument(
            "controller " + controller->Name() + " targeted model index " +
            std::to_string(action.model) + " with " +
            control::ControlActionName(action.kind) +
            ", but the served plan has " + std::to_string(n) + " models");
        return;
      }
      if (action.amount_per_hour < 0.0) {
        control_status = Status::InvalidArgument(
            "controller " + controller->Name() +
            " emitted BORROW_BUDGET with a negative amount (" +
            FormatDollarsPerHour(action.amount_per_hour) + ")");
        return;
      }
      if (loaned[action.model]) continue;
      loaned[action.model] = true;
      if (reallocated_here) continue;  // shares were just re-derived
      const std::size_t j = action.model;
      // When a same-barrier kFailover will replan this model anyway, the
      // ledger only moves the shares here and lets that replan pick the
      // enlarged (or restored) share up — one replan, not two.
      bool replanned_later = false;
      for (const control::ControlAction& other : actions) {
        if (other.kind == control::ControlActionKind::kFailover &&
            other.model == j) {
          replanned_later = true;
          break;
        }
      }
      if (action.amount_per_hour > 0.0) {
        // Borrow: take proportionally from the other models' headroom
        // (share above floor; a model with outstanding loans of its own
        // does not donate).
        std::vector<double> headroom(n, 0.0);
        double headroom_total = 0.0;
        for (std::size_t m = 0; m < n; ++m) {
          if (m == j || !loans[m].empty()) continue;
          headroom[m] = std::max(shares[m] - floors_[indices[m]], 0.0);
          headroom_total += headroom[m];
        }
        const double grant = std::min(action.amount_per_hour, headroom_total);
        if (grant <= 1e-9) continue;  // no headroom anywhere: loan declined
        // `granted` re-accumulates the individual takes so the repayment
        // (which sums the same ledger entries) matches it bit for bit.
        double granted = 0.0;
        for (std::size_t m = 0; m < n; ++m) {
          if (headroom[m] <= 0.0) continue;
          const double take = grant * headroom[m] / headroom_total;
          if (take <= 0.0) continue;
          shares[m] -= take;
          loans[j].push_back({m, take});
          granted += take;
          // The donor's plan only fits its shrunk share after a replan;
          // do it now so the share invariant never lapses.
          const Status replanned = replan_model(m, shares[m]);
          if (!replanned.ok()) {
            control_status = replanned;
            return;
          }
        }
        shares[j] += granted;
        loan_event_ids[j].push_back(loan_events.size());
        loan_events.push_back({granted, false});
        ++borrows;
        if (!replanned_later) {
          const Status replanned = replan_model(j, shares[j]);
          if (!replanned.ok()) {
            control_status = replanned;
            return;
          }
        }
      } else {
        // Amount 0: repay every outstanding loan of this model.
        if (loans[j].empty()) continue;
        const std::vector<std::pair<std::size_t, double>> repaid_loans =
            std::move(loans[j]);
        loans[j].clear();
        double repaid = 0.0;
        for (const auto& loan : repaid_loans) {
          shares[loan.first] += loan.second;
          repaid += loan.second;
        }
        shares[j] -= repaid;
        for (const std::size_t id : loan_event_ids[j]) {
          loan_events[id].repaid = true;
        }
        loan_event_ids[j].clear();
        ++paybacks;
        // The borrower shrinks back inside its restored share first; the
        // donors then replan up to reclaim theirs.
        if (!replanned_later) {
          const Status replanned = replan_model(j, shares[j]);
          if (!replanned.ok()) {
            control_status = replanned;
            return;
          }
        }
        for (const auto& loan : repaid_loans) {
          const Status replanned = replan_model(loan.first, shares[loan.first]);
          if (!replanned.ok()) {
            control_status = replanned;
            return;
          }
        }
      }
      control_log.push_back(FleetControlEvent{
          t, action.kind, names_[indices[j]], action.reason});
    }
    // Chaos recoveries, after any reallocation: one per model per barrier
    // (the first action on a model wins), and all of them skipped when a
    // same-barrier re-split already replanned and reconfigured everything.
    std::vector<bool> recovered(n, false);
    for (const control::ControlAction& action : actions) {
      if (action.kind != control::ControlActionKind::kRespread &&
          action.kind != control::ControlActionKind::kFailover) {
        continue;
      }
      if (action.model >= n) {
        control_status = Status::InvalidArgument(
            "controller " + controller->Name() + " targeted model index " +
            std::to_string(action.model) + " with " +
            control::ControlActionName(action.kind) +
            ", but the served plan has " + std::to_string(n) + " models");
        return;
      }
      if (recovered[action.model]) continue;
      recovered[action.model] = true;
      if (reallocated_here) continue;
      const std::size_t j = action.model;
      if (action.kind == control::ControlActionKind::kFailover) {
        const Status replanned = replan_model(j, shares[j]);
        if (!replanned.ok()) {
          control_status = replanned;
          return;
        }
        ++failovers;
      } else {
        // Re-issue the current target: lost (and retiring) capacity drops
        // out of the live count, so the engine schedules replacement
        // launches now — fired on a notice, the launch lag overlaps the
        // victim's notice window.
        const Status respread =
            engines[j]->Reconfigure(engines[j]->target_config());
        if (!respread.ok()) {
          control_status = respread;
          return;
        }
        ++respreads;
      }
      control_log.push_back(FleetControlEvent{
          t, action.kind, names_[indices[j]], action.reason});
    }
    // Shed-knob changes, last and unconditionally: shedding is an
    // admission regime, not capacity, so a same-barrier reallocation
    // does not supersede it. One change per model per barrier (the
    // first action on a model wins); only the deadline knob moves — the
    // run-level bounded-queue settings stay as configured.
    std::vector<bool> shed_set(n, false);
    for (const control::ControlAction& action : actions) {
      if (action.kind != control::ControlActionKind::kSetShed) continue;
      if (action.model >= n) {
        control_status = Status::InvalidArgument(
            "controller " + controller->Name() + " targeted model index " +
            std::to_string(action.model) + " with " +
            control::ControlActionName(action.kind) +
            ", but the served plan has " + std::to_string(n) + " models");
        return;
      }
      if (shed_set[action.model]) continue;
      shed_set[action.model] = true;
      const std::size_t j = action.model;
      serving::AdmissionOptions admission = engines[j]->admission();
      admission.deadline_s = action.deadline_s;
      const Status set = engines[j]->SetAdmission(admission);
      if (!set.ok()) {
        control_status = set;
        return;
      }
      ++shed_actions;
      control_log.push_back(FleetControlEvent{
          t, action.kind, names_[indices[j]], action.reason});
    }
  };

  // One FleetTelemetry reused across barriers; the per-model window
  // vectors are stable (outer vector sized once), so the pointers stay
  // valid for the duration of each Decide() call.
  control::FleetTelemetry telemetry;
  telemetry.duration_s = options.duration_s;
  telemetry.window_s = options.window_s;
  telemetry.budget_per_hour = options_.budget_per_hour;
  telemetry.models.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    // Run-invariant fields, filled once; the per-barrier snapshot below
    // only refreshes what actually moves.
    const std::size_t i = indices[j];
    telemetry.models[j].model = names_[i];
    telemetry.models[j].arrival_scale = model_options_[i].arrival_scale;
    telemetry.models[j].qos_ms = sessions_[i].qos_ms();
    telemetry.models[j].windows = &windows[j];
  }
  auto snapshot_telemetry = [&](Time t, bool window_closed) {
    telemetry.now = t;
    telemetry.window_closed = window_closed;
    telemetry.windows_closed = n > 0 ? windows[0].size() : 0;
    telemetry.last_reallocation = last_realloc_time;
    for (std::size_t j = 0; j < n; ++j) {
      control::ModelTelemetry& model = telemetry.models[j];
      model.share_per_hour = shares[j];
      model.offered = engines[j]->Offered();
      model.served = engines[j]->Served();
      model.backlog = engines[j]->Backlog();
      const double elapsed = std::max(t - last_realloc_time, 1e-9);
      model.observed_rate_qps =
          static_cast<double>(model.offered - offered_at_realloc[j]) /
          elapsed;
      // After a kResetMonitor the planning monitor *is* the live window;
      // what the current configuration was planned against is then the
      // frozen reference, not the window's moving mean (which would make
      // plan_mean_batch track live_mean_batch and contradict `drift`).
      model.plan_mean_batch =
          !live_monitors.empty() && plan_monitors[j] == &live_monitors[j]
              ? live_monitors[j].reference_mean_batch()
              : plan_monitors[j]->MeanBatch();
      if (!live_monitors.empty()) {
        model.live_mean_batch = live_monitors[j].MeanBatch();
        model.live_queries = live_monitors[j].Count();
        model.drift = live_monitors[j].BatchMixDrift();
      } else {
        model.live_mean_batch = 0.0;
        model.live_queries = 0;
        model.drift = 0.0;
      }
      model.live_instances = engines[j]->AssignableInstances();
      model.target_instances = static_cast<std::size_t>(
          engines[j]->target_config().TotalInstances());
      model.pending_instances = engines[j]->PendingInstances();
      model.instances_lost = engines[j]->InstancesLost();
      model.preemption_notices = engines[j]->PreemptionNotices();
      model.rejected = engines[j]->Rejected();
      model.shed = engines[j]->Shed();
      model.shed_deadline_s = engines[j]->admission().deadline_s;
      // The spot discount this model's capacity is renting at right now
      // (1.0 = on-demand): the injector's market quote evaluated on its
      // curve at the barrier time.
      const cloud::SpotMarket* market =
          injector != nullptr ? injector->Market(j) : nullptr;
      model.spot_discount = market != nullptr ? market->DiscountAt(t) : 1.0;
    }
  };

  // The barrier drive loop. Advancing a shard fires its own arrivals,
  // completions, policy rounds, load shifts and live-monitor taps up to
  // the barrier — work that never touches another shard — so the shards
  // run concurrently on a pool reused across barriers. The shared step —
  // window snapshots, telemetry, controller decisions, action
  // application — runs joined, on this thread, exactly as the
  // single-threaded walk would; the whole control loop is therefore
  // bit-identical for every serve_threads value.
  const std::size_t workers = ParallelismFor(options.serve_threads, n);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  auto advance_all = [&](Time t) {
    if (pool != nullptr) {
      ParallelFor(*pool, n,
                  [&engines, t](std::size_t j) { engines[j]->AdvanceTo(t); });
    } else {
      for (std::size_t j = 0; j < n; ++j) engines[j]->AdvanceTo(t);
    }
  };
  // Faults armed at t <= 0 (e.g. a NET_DEGRADE window opening at the
  // start) land before the first arrival fires.
  drain_chaos(0.0);
  telemetry::TelemetrySink sink(tel);
  for (const auto& [t, kinds] : barriers) {
    advance_all(t);
    if ((kinds & kWindowBarrier) != 0) {
      std::optional<telemetry::ScopedSpan> window_span;
      if (tel != nullptr) {
        window_span.emplace(&tel->tracer(), tel->fleet_shard(),
                            "window.snapshot");
        window_span->AddArg("t_s", std::to_string(t));
      }
      for (std::size_t j = 0; j < n; ++j) {
        windows[j].push_back(engines[j]->TakeWindow());
        if (options.window_probe) {
          options.window_probe(j, windows[j].back());
        }
      }
    }
    // Chaos lands before the controller looks: a loss applied here is in
    // the telemetry of the same barrier's Decide(), so a chaos-aware
    // controller reacts with zero barrier lag.
    drain_chaos(t);
    // The horizon barrier only closes the final window: an action applied
    // there could never serve a query, so the controller is not consulted
    // — centrally, rather than as a guard every controller must remember.
    if (controller != nullptr && t < options.duration_s - 1e-9) {
      snapshot_telemetry(t, (kinds & kWindowBarrier) != 0);
      std::optional<telemetry::ScopedSpan> decide_span;
      if (tel != nullptr) {
        decide_span.emplace(&tel->tracer(), tel->fleet_shard(),
                            "control.decide");
        decide_span->AddArg("controller", controller->Name());
      }
      const std::vector<control::ControlAction> actions =
          controller->Decide(telemetry);
      if (decide_span.has_value()) {
        // The chosen actions ride the span as args — this is how a trace
        // answers "why did the controller fire here?".
        decide_span->AddArg("actions", std::to_string(actions.size()));
        for (std::size_t a = 0; a < actions.size(); ++a) {
          decide_span->AddArg(
              "action" + std::to_string(a),
              std::string(control::ControlActionName(actions[a].kind)) +
                  (actions[a].model < n
                       ? " " + names_[indices[actions[a].model]]
                       : std::string()) +
                  (actions[a].reason.empty() ? "" : ": " + actions[a].reason));
        }
        tel->metrics().Add(tel->control_actions(), tel->fleet_shard(),
                           static_cast<double>(actions.size()));
      }
      apply_actions(t, actions);
      if (!control_status.ok()) return control_status;
      decide_span.reset();
    }
    if (tel != nullptr) {
      // Fleet-shard bookkeeping at quiescence: the per-shard event-queue
      // depth gauge, the barrier counter, and the sink's registry
      // snapshot into FleetServeResult::telemetry_samples.
      for (std::size_t j = 0; j < n; ++j) {
        tel->metrics().Set(tel->sim_pending_events(), j,
                           static_cast<double>(clocks[j]->PendingEvents()));
      }
      tel->metrics().Add(tel->barriers(), tel->fleet_shard());
      sink.AtBarrier(t, kinds);
    }
  }

  // Loans still outstanding at the horizon force-repay into the totals —
  // the run is over and the borrowed headroom returns to its donors — so
  // the conservation invariant borrowed == repaid holds exactly and
  // final_shares_per_hour reports the unborrowed split.
  for (std::size_t j = 0; j < n; ++j) {
    if (loans[j].empty()) continue;
    double repaid = 0.0;
    for (const auto& loan : loans[j]) {
      shares[loan.first] += loan.second;
      repaid += loan.second;
    }
    shares[j] -= repaid;
    for (const std::size_t id : loan_event_ids[j]) {
      loan_events[id].repaid = true;
    }
    loan_event_ids[j].clear();
    ++paybacks;
    loans[j].clear();
  }

  // Fold the loan ledger once, in borrow order, for both totals: when
  // every grant was repaid (always, by construction) the two sums add
  // the identical doubles in the identical order and compare equal
  // bit-for-bit.
  double budget_borrowed = 0.0;
  double budget_repaid = 0.0;
  for (const LoanEvent& event : loan_events) {
    budget_borrowed += event.granted;
    if (event.repaid) budget_repaid += event.granted;
  }

  FleetServeResult result;
  result.duration_s = options.duration_s;
  result.telemetry_samples = sink.TakeSamples();
  result.telemetry_samples_dropped = sink.dropped_samples();
  result.reallocations = reallocations;
  result.monitor_resets = monitor_resets;
  result.respreads = respreads;
  result.failovers = failovers;
  result.shed_actions = shed_actions;
  result.borrows = borrows;
  result.paybacks = paybacks;
  result.budget_borrowed_per_hour = budget_borrowed;
  result.budget_repaid_per_hour = budget_repaid;
  result.control_log = std::move(control_log);
  // Ledger-drained kills interleave with injector events out of order
  // (they fire on shard clocks between barriers); one stable sort
  // restores time order deterministically.
  std::stable_sort(chaos_log.begin(), chaos_log.end(),
                   [](const FleetChaosEvent& a, const FleetChaosEvent& b) {
                     return a.time < b.time;
                   });
  result.chaos_log = std::move(chaos_log);
  result.final_shares_per_hour = std::move(shares);
  for (std::size_t j = 0; j < n; ++j) {
    FleetModelServe serve;
    serve.model = names_[indices[j]];
    serve.totals = engines[j]->Totals();
    serve.windows = std::move(windows[j]);
    serve.qps = static_cast<double>(serve.totals.served) / options.duration_s;
    serve.instances_lost = engines[j]->InstancesLost();
    serve.preemption_notices = engines[j]->PreemptionNotices();
    // Billed spend at on-demand prices from the engine's census, then the
    // injector's spot market (when it quotes one for this model) applies
    // its discount — integrated over the run when the market carries a
    // time-varying curve — the "effective cost" a preemptible fleet
    // actually pays for the capacity it rented.
    const std::vector<double> billed = engines[j]->BilledSecondsPerType();
    double ondemand_usd = 0.0;
    for (cloud::TypeId type = 0; type < catalog_.size(); ++type) {
      ondemand_usd += billed[type] * catalog_[type].price_per_hour / 3600.0;
    }
    serve.ondemand_cost_usd = ondemand_usd;
    const cloud::SpotMarket* market =
        injector != nullptr ? injector->Market(j) : nullptr;
    serve.effective_cost_usd =
        market != nullptr
            ? cloud::SpotCost(*market, ondemand_usd, options.duration_s)
            : ondemand_usd;
    result.total_qps += serve.qps;
    result.total_weighted_qps +=
        model_options_[indices[j]].arrival_scale * serve.qps;
    result.instances_lost += serve.instances_lost;
    result.preemption_notices += serve.preemption_notices;
    result.ondemand_cost_usd += serve.ondemand_cost_usd;
    result.effective_cost_usd += serve.effective_cost_usd;
    result.models.push_back(std::move(serve));
  }
  result.effective_cost_per_hour =
      result.effective_cost_usd * 3600.0 / options.duration_s;
  return result;
}

StatusOr<std::unique_ptr<serving::Engine>> Fleet::Deploy(
    const std::string& model, const cloud::Config& config) const {
  const std::size_t i = IndexOf(model);
  if (i == kNpos) {
    return Status::NotFound("model " + model + " is not in this fleet");
  }
  return sessions_[i].Deploy(config);
}

StatusOr<FleetMeasurement> Fleet::MeasureAll(
    const FleetPlan& plan, const workload::BatchDistribution& mix,
    serving::EvalOptions eval_options) const {
  std::vector<std::size_t> indices;
  indices.reserve(plan.models.size());
  for (const FleetModelPlan& model_plan : plan.models) {
    const std::size_t i = IndexOf(model_plan.model);
    if (i == kNpos) {
      return Status::NotFound("model " + model_plan.model +
                              " is not in this fleet");
    }
    indices.push_back(i);
  }

  // Measurements of independent models share nothing; run them in
  // parallel, each under the model's own trace when one is set.
  std::vector<serving::EvalResult> results(plan.models.size());
  ParallelFor(plan.models.size(), options_.planning_threads,
              [&](std::size_t j) {
                const FleetModelPlan& model_plan = plan.models[j];
                const std::size_t i = indices[j];
                serving::EvalOptions per_model = eval_options;
                if (model_plan.outcome.expected_qps > 0.0) {
                  per_model.rate_guess = 0.5 * model_plan.outcome.expected_qps;
                }
                results[j] = sessions_[i].MeasureThroughput(
                    model_plan.outcome.config, MixFor(i, mix), per_model);
              });

  FleetMeasurement measurement;
  for (std::size_t j = 0; j < plan.models.size(); ++j) {
    FleetModelMeasurement m;
    m.model = plan.models[j].model;
    m.result = results[j];
    measurement.total_qps += m.result.qps;
    measurement.total_weighted_qps +=
        model_options_[indices[j]].arrival_scale * m.result.qps;
    measurement.models.push_back(std::move(m));
  }
  return measurement;
}

}  // namespace kairos::core
