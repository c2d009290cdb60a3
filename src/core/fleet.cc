#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

#include "chaos/injector.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "latency/model_zoo.h"
#include "rpc/netem.h"
#include "sim/simulator.h"
#include "workload/query_source.h"

namespace kairos::core {
namespace {

using control::ControlAction;
using control::ControlActionKind;

/// `status` reported against one model: "model RM2: <message>".
Status ForModel(const std::string& name, const Status& status) {
  return Status(status.code(), "model " + name + ": " + status.message());
}

/// 0, 1, ..., n-1: every model of a fleet, in fleet order.
std::vector<std::size_t> AllOf(std::size_t n) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

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

/// Failure domains a model's instances are spread over (0 behaves as 1).
std::size_t FailureDomains(const FleetModelOptions& model) {
  return std::max<std::size_t>(model.failure_domains, 1);
}

/// The N-1 core budget of one model (DESIGN.md Sec. 11). Read only by
/// Fleet::Run::PlanShare, the one place the initial deployment and every
/// in-serve replan size a model, so the two cannot drift.
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
  core.domains = FailureDomains(model);
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

/// The one probe: what `backend` expects for `session`'s model inside
/// `budget` against `monitor`. Allocation-light and safe to call
/// concurrently: MARGINAL calls it once per candidate budget.
StatusOr<double> ProbeModel(const PlannerBackend& backend,
                            const Kairos& session,
                            const workload::QueryMonitor& monitor,
                            const search::SearchOptions& search,
                            double budget) {
  PlanRequest request;
  request.monitor = &monitor;
  request.search = search;
  auto outcome = backend.Probe(PlannerContext{&session.catalog(),
                                              &session.truth(),
                                              session.qos_ms(), budget},
                               request);
  if (!outcome.ok()) return outcome.status();
  return outcome->expected_qps;
}

/// The one plan: `session`'s model inside `budget` against `monitor`.
/// Evaluation-driven backends (KAIROS+, BRUTE-FORCE) measure configs on a
/// snapshot of `monitor`'s mix in a nested simulation. `instrument` sees
/// the wired request before planning. Errors carry no model prefix.
StatusOr<PlannerOutcome> PlanModel(
    const PlannerBackend& backend, const Kairos& session,
    const workload::QueryMonitor& monitor, const search::SearchOptions& search,
    double budget, const std::function<void(PlanRequest&)>& instrument) {
  PlanRequest request;
  request.monitor = &monitor;
  request.search = search;
  if (backend.NeedsEvaluations()) {
    auto mix = monitor.Snapshot();
    if (!mix.ok()) return mix.status();
    request.eval = [&session,
                    mix = *std::move(mix)](const cloud::Config& config) {
      serving::EvalOptions eval_options;
      return session.MeasureThroughput(config, mix, eval_options).qps;
    };
  }
  if (instrument != nullptr) instrument(request);
  return backend.Plan(PlannerContext{&session.catalog(), &session.truth(),
                                     session.qos_ms(), budget},
                      request);
}

/// ServeAll's scalar knobs.
Status CheckServeOptions(const FleetServeOptions& options) {
  if (options.duration_s <= 0.0 || options.base_rate_qps <= 0.0 ||
      options.window_s <= 0.0) {
    return Status::InvalidArgument(
        "ServeAll needs positive duration_s, base_rate_qps and window_s");
  }
  return Status::Ok();
}

/// Every load shift must name a model of the *served plan* — a fleet
/// member outside the plan would be a silently dropped no-op, not a load
/// change — with a positive scale, inside the horizon.
Status CheckShifts(const FleetServeOptions& options,
                   const std::vector<std::string>& served) {
  for (const FleetLoadShift& shift : options.shifts) {
    if (std::find(served.begin(), served.end(), shift.model) == served.end()) {
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
  return Status::Ok();
}

/// The control plane: the named controller, nullptr (frozen allocation)
/// for none.
StatusOr<std::unique_ptr<control::FleetController>> ResolveController(
    const FleetServeOptions& options) {
  if (options.controller.empty() && !options.controller_knobs.empty()) {
    // Knobs without a controller would be dropped silently;
    // misconfiguration fails loudly like every other knob path.
    return Status::InvalidArgument(
        "controller_knobs were given but no controller is named; set "
        "FleetServeOptions::controller (registered controllers: " +
        JoinComma(control::ControllerRegistry::Global().ListNames()) + ")");
  }
  if (options.controller.empty()) {
    return std::unique_ptr<control::FleetController>();
  }
  return control::ControllerRegistry::Global().Build(options.controller,
                                                     options.controller_knobs);
}

/// The chaos plane: the named or programmatic injector, nullptr for none.
/// No injector means no chaos code runs at all — no extra barriers, no
/// fault reads, no network fabric — so the run is bit-identical to a
/// chaos-free build (tests/chaos_test.cc).
StatusOr<std::shared_ptr<chaos::ChaosInjector>> ResolveInjector(
    const FleetServeOptions& options) {
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
  if (options.chaos.empty()) return options.injector;
  auto built =
      chaos::ChaosRegistry::Global().Build(options.chaos, options.chaos_knobs);
  if (!built.ok()) return built.status();
  return std::shared_ptr<chaos::ChaosInjector>(*std::move(built));
}

/// The telemetry plane must have been created for exactly the served
/// plan's model names, in plan order.
Status CheckTelemetry(const telemetry::Telemetry& tel,
                      const std::vector<std::string>& served) {
  if (tel.num_model_shards() != served.size()) {
    return Status::InvalidArgument(
        "FleetServeOptions::telemetry was created for " +
        std::to_string(tel.num_model_shards()) +
        " model shards, but the served plan has " +
        std::to_string(served.size()));
  }
  for (std::size_t j = 0; j < served.size(); ++j) {
    if (tel.tracer().shard_names()[j] != served[j]) {
      return Status::InvalidArgument(
          "FleetServeOptions::telemetry shard " + std::to_string(j) +
          " is named \"" + tel.tracer().shard_names()[j] +
          "\" but the served plan's model " + std::to_string(j) + " is \"" +
          served[j] +
          "\"; create the Telemetry with the plan's model names in plan "
          "order");
    }
  }
  return Status::Ok();
}

/// One model's arrival stream: its named trace mix (PRODUCTION when
/// unset) at `rate_qps`, or the file behind a STREAM / TRACE trace.
StatusOr<std::unique_ptr<workload::QuerySource>> SourceFor(
    const FleetModelOptions& model, double rate_qps) {
  workload::QuerySourceSpec spec;
  const std::string trace_name = CanonicalName(model.trace);
  if (trace_name == "STREAM") {
    spec.source = "STREAM";
    spec.path = model.trace_path;
  } else if (trace_name == "TRACE") {
    // The materialized oracle of the STREAM path: same file, read
    // eagerly through the same parser, replayed from memory.
    auto trace = workload::ReadTraceCsv(model.trace_path);
    if (!trace.ok()) return trace.status();
    spec.source = "TRACE";
    spec.trace = *std::move(trace);
  } else {
    spec.source = trace_name.empty() ? "PRODUCTION" : trace_name;
  }
  spec.rate_qps = rate_qps;
  return workload::QuerySourceRegistry::Global().Build(spec);
}

enum : unsigned { kWindowBarrier = 1u, kDecisionBarrier = 2u,
                  kChaosBarrier = 4u };

/// The barrier grid: window boundaries (k * width, never accumulated, so
/// no duplicate boundary drifts in below the horizon; the horizon closes
/// the last window) merged with the controller's decision times and the
/// injector's fault times. A window closes before a same-time decision.
std::map<Time, unsigned> BarrierGrid(const FleetServeOptions& options,
                                     const control::FleetController* controller,
                                     const chaos::ChaosInjector* injector) {
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
    // Faults land at their scheduled time, not the next window boundary;
    // those at t <= 0 land in the walk's opening drain.
    for (const Time t : injector->FaultTimes()) {
      if (t <= 0.0 || t >= options.duration_s - 1e-9) continue;
      barriers[t] |= kChaosBarrier;
    }
  }
  return barriers;
}

/// The loan ledger (kBorrowBudget, DESIGN.md Sec. 11): per borrower, the
/// (donor, $/hr) grants outstanding. Every grant is repaid through Repay()
/// — on an amount-0 action, a reallocation or the horizon — and Totals()
/// folds the loan events once, in borrow order, so borrowed == repaid
/// holds bit for bit (two differently ordered sums could differ in an ulp).
class LoanLedger {
 public:
  struct Loan {
    std::size_t donor = 0;
    double amount = 0.0;  ///< $/hr taken from the donor's share
  };

  explicit LoanLedger(std::size_t n) : loans_(n), event_ids_(n) {}

  bool Owes(std::size_t j) const { return !loans_[j].empty(); }

  /// Moves up to `amount` $/hr into model j's share from the others'
  /// headroom (share above `floor`, taken proportionally; a borrower
  /// does not donate). Returns the new grants in donor order, or nullopt
  /// when no donor has headroom (the loan is declined).
  std::optional<std::span<const Loan>> Borrow(std::size_t j, double amount,
                                              double floor,
                                              std::vector<double>& shares) {
    const auto headroom = [&](std::size_t m) {
      return m == j || Owes(m) ? 0.0 : std::max(shares[m] - floor, 0.0);
    };
    double total = 0.0;
    for (std::size_t m = 0; m < shares.size(); ++m) total += headroom(m);
    const double grant = std::min(amount, total);
    if (grant <= 1e-9) return std::nullopt;
    const std::size_t first = loans_[j].size();
    // `granted` re-accumulates the individual takes so the repayment
    // (which sums the same ledger entries) matches it bit for bit.
    double granted = 0.0;
    for (std::size_t m = 0; m < shares.size(); ++m) {
      const double available = headroom(m);
      if (available <= 0.0) continue;
      const double take = grant * available / total;
      if (take <= 0.0) continue;
      shares[m] -= take;
      loans_[j].push_back({m, take});
      granted += take;
    }
    shares[j] += granted;
    event_ids_[j].push_back(events_.size());
    events_.push_back({granted, false});
    ++borrows_;
    return std::span<const Loan>(loans_[j]).subspan(first);
  }

  /// Returns every outstanding loan of model j to its donor's share and
  /// counts one payback. Returns the repaid loans, oldest first.
  std::vector<Loan> Repay(std::size_t j, std::vector<double>& shares) {
    std::vector<Loan> repaid = std::move(loans_[j]);
    loans_[j].clear();
    double total = 0.0;
    for (const Loan& loan : repaid) {
      shares[loan.donor] += loan.amount;
      total += loan.amount;
    }
    shares[j] -= total;
    for (const std::size_t id : event_ids_[j]) events_[id].repaid = true;
    event_ids_[j].clear();
    ++paybacks_;
    return repaid;
  }

  void RepayAll(std::vector<double>& shares) {
    for (std::size_t j = 0; j < loans_.size(); ++j) {
      if (Owes(j)) Repay(j, shares);
    }
  }

  std::size_t borrows() const { return borrows_; }
  std::size_t paybacks() const { return paybacks_; }

  /// {borrowed, repaid} $/hr: when every grant was repaid the two sums add
  /// the identical doubles in the identical order.
  std::pair<double, double> Totals() const {
    double borrowed = 0.0;
    double repaid = 0.0;
    for (const LoanEvent& event : events_) {
      borrowed += event.granted;
      if (event.repaid) repaid += event.granted;
    }
    return {borrowed, repaid};
  }

 private:
  struct LoanEvent {
    double granted = 0.0;  ///< $/hr moved to the borrower at grant time
    bool repaid = false;
  };

  std::vector<std::vector<Loan>> loans_;             ///< per borrower
  std::vector<std::vector<std::size_t>> event_ids_;  ///< per borrower
  std::vector<LoanEvent> events_;                    ///< borrow order
  std::size_t borrows_ = 0;
  std::size_t paybacks_ = 0;
};

/// The applier's phases, in application order: monitor resets, the
/// re-split, loans, chaos recoveries, shedding.
int PhaseOf(ControlActionKind kind) {
  using K = ControlActionKind;
  return kind == K::kResetMonitor   ? 0
         : kind == K::kReallocate   ? 1
         : kind == K::kBorrowBudget ? 2
         : kind == K::kSetShed      ? 4
                                    : 3;  // kRespread, kFailover
}
constexpr int kPhases = 5;

}  // namespace

/// One ServeAll co-simulation (DESIGN.md Sec. 9), made of named parts: the
/// shard set (per served model an engine on its own clock, its source,
/// windows, instruments and live monitor, plus the pool), the chaos bridge
/// (the run is the injector's ChaosTarget), the control snapshot, the
/// action applier with its loan ledger, and the result fold. Build()
/// deploys the shards, Walk() drives the barrier grid, Fold() reads the
/// answer out. Model j is the served plan's j-th; index_[j] its fleet index.
class Fleet::Run final : public chaos::ChaosTarget {
 public:
  Run(const Fleet& fleet, std::vector<std::size_t> index,
      FleetServeOptions options)
      : fleet_(fleet),
        index_(std::move(index)),
        options_(std::move(options)),
        n_(index_.size()),
        tel_(options_.telemetry),
        windows_(n_),
        fabrics_(n_),
        offered_at_realloc_(n_, 0),
        ledger_(n_),
        claimed_(n_, false),
        faults_drained_(n_, 0),
        sink_(tel_) {
    // The whole window schedule, reserved so barriers never reallocate.
    const auto expected =
        static_cast<std::size_t>(options_.duration_s / options_.window_s) + 2;
    for (auto& windows : windows_) windows.reserve(expected);
    instruments_.reserve(n_);  // engines keep pointers to the elements
    for (const std::size_t i : index_) {
      names_.push_back(fleet_.names_[i]);
      plan_monitors_.push_back(&fleet_.sessions_[i].monitor());
    }
  }

  // Engines, clock events and pool workers hold pointers into the run.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Status Build(const FleetPlan& plan) {
    if (Status s = CheckShifts(options_, names_); !s.ok()) return s;
    if (Status s = ResolvePlanes(); !s.ok()) return s;
    for (std::size_t j = 0; j < n_; ++j) {
      if (Status s = AddShard(j, plan.models[j]); !s.ok()) return s;
    }
    if (injector_ != nullptr) {
      const chaos::ChaosSchedule schedule{
          options_.duration_s, options_.window_s, fleet_.options_.seed, n_};
      if (Status s = injector_->Arm(schedule); !s.ok()) return s;
    }
    // Live batch-mix monitors, fed in-shard by the shard's own worker, so
    // deterministic under any serve_threads. Only mix-reading controllers
    // (DRIFT, a COMPOSITE containing it) pay the per-arrival tap.
    if (controller_ != nullptr && controller_->NeedsLiveMix()) {
      live_monitors_.reserve(n_);
      for (std::size_t j = 0; j < n_; ++j) {
        live_monitors_.emplace_back(
            fleet_.model_options_[index_[j]].monitor_warmup);
        live_monitors_.back().MarkPlanningReference(
            plan_monitors_[j]->MeanBatch());
        engines_[j]->SetMonitorTap(&live_monitors_.back());
      }
    }
    barriers_ = BarrierGrid(options_, controller_.get(), injector_.get());
    // Run-invariant snapshot fields; Snapshot() refreshes what moves.
    snapshot_.duration_s = options_.duration_s;
    snapshot_.window_s = options_.window_s;
    snapshot_.budget_per_hour = fleet_.options_.budget_per_hour;
    snapshot_.models.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      control::ModelTelemetry& model = snapshot_.models[j];
      shares_.push_back(plan.models[j].budget_per_hour);
      model.model = names_[j];
      model.arrival_scale = fleet_.model_options_[index_[j]].arrival_scale;
      model.qos_ms = fleet_.sessions_[index_[j]].qos_ms();
      model.windows = &windows_[j];
    }
    const std::size_t workers = ParallelismFor(options_.serve_threads, n_);
    if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
    return Status::Ok();
  }

  /// Each step advances every shard to the barrier, then runs the shared
  /// step joined, on this thread, exactly as the serial walk would — so
  /// the whole loop is bit-identical for every serve_threads.
  Status Walk() {
    // Faults armed at t <= 0 (e.g. a NET_DEGRADE window opening at the
    // start) land before the first arrival fires.
    DrainChaos(0.0);
    for (const auto& [t, kinds] : barriers_) {
      AdvanceAll(t);
      const bool window_closed = (kinds & kWindowBarrier) != 0;
      if (window_closed) CloseWindows(t);
      // Chaos lands before the controller looks, so a chaos-aware
      // controller reacts with zero barrier lag.
      DrainChaos(t);
      // An action at the horizon could never serve a query, so the
      // controller is not consulted there.
      if (controller_ != nullptr && t < options_.duration_s - 1e-9) {
        if (Status s = Control(t, window_closed); !s.ok()) return s;
      }
      if (tel_ != nullptr) Bookkeep(t, kinds);
    }
    // Loans still outstanding at the horizon force-repay, so borrowed ==
    // repaid and final_shares_per_hour is the unborrowed split.
    ledger_.RepayAll(shares_);
    return Status::Ok();
  }

  FleetServeResult Fold() {
    FleetServeResult result;
    result.duration_s = options_.duration_s;
    result.telemetry_samples = sink_.TakeSamples();
    result.telemetry_samples_dropped = sink_.dropped_samples();
    result.reallocations = reallocations_;
    result.monitor_resets = monitor_resets_;
    result.respreads = respreads_;
    result.failovers = failovers_;
    result.shed_actions = shed_actions_;
    result.borrows = ledger_.borrows();
    result.paybacks = ledger_.paybacks();
    std::tie(result.budget_borrowed_per_hour, result.budget_repaid_per_hour) =
        ledger_.Totals();
    result.control_log = std::move(control_log_);
    // Ledger-drained kills interleave with injector events out of order
    // (they fire on shard clocks between barriers); one stable sort
    // restores time order deterministically.
    std::stable_sort(chaos_log_.begin(), chaos_log_.end(),
                     [](const FleetChaosEvent& a, const FleetChaosEvent& b) {
                       return a.time < b.time;
                     });
    result.chaos_log = std::move(chaos_log_);
    result.final_shares_per_hour = std::move(shares_);
    const cloud::Catalog& catalog = fleet_.catalog_;
    for (std::size_t j = 0; j < n_; ++j) {
      const serving::Engine& engine = *engines_[j];
      FleetModelServe serve;
      serve.model = names_[j];
      serve.totals = engine.Totals();
      serve.windows = std::move(windows_[j]);
      serve.qps =
          static_cast<double>(serve.totals.served) / options_.duration_s;
      serve.instances_lost = engine.InstancesLost();
      serve.preemption_notices = engine.PreemptionNotices();
      // Billed spend at on-demand prices, then the injector's spot
      // discount (integrated over its curve) when it quotes a market.
      const std::vector<double> billed = engine.BilledSecondsPerType();
      double ondemand_usd = 0.0;
      for (cloud::TypeId type = 0; type < catalog.size(); ++type) {
        ondemand_usd += billed[type] * catalog[type].price_per_hour / 3600.0;
      }
      serve.ondemand_cost_usd = ondemand_usd;
      const cloud::SpotMarket* market =
          injector_ != nullptr ? injector_->Market(j) : nullptr;
      serve.effective_cost_usd =
          market != nullptr
              ? cloud::SpotCost(*market, ondemand_usd, options_.duration_s)
              : ondemand_usd;
      result.total_qps += serve.qps;
      result.total_weighted_qps +=
          fleet_.model_options_[index_[j]].arrival_scale * serve.qps;
      result.instances_lost += serve.instances_lost;
      result.preemption_notices += serve.preemption_notices;
      result.ondemand_cost_usd += serve.ondemand_cost_usd;
      result.effective_cost_usd += serve.effective_cost_usd;
      result.models.push_back(std::move(serve));
    }
    result.effective_cost_per_hour =
        result.effective_cost_usd * 3600.0 / options_.duration_s;
    return result;
  }

  // The chaos bridge: faults land on quiesced engines, at barriers.
  std::size_t NumModels() const override { return n_; }
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
  void DegradeNetwork(std::size_t m, const rpc::NetworkModel& net) override {
    fabrics_[m] = std::make_unique<rpc::NetworkModel>(net);  // engine borrows
    engines_[m]->SetNetwork(fabrics_[m].get());
  }
  void RestoreNetwork(std::size_t m) override {
    engines_[m]->SetNetwork(nullptr);
  }

 private:
  using Actions = std::vector<ControlAction>;

  Status ResolvePlanes() {
    auto controller = ResolveController(options_);
    if (!controller.ok()) return controller.status();
    controller_ = *std::move(controller);
    auto injector = ResolveInjector(options_);
    if (!injector.ok()) return injector.status();
    injector_ = *std::move(injector);
    auto backend = PlannerRegistry::Global().Build(fleet_.options_.planner);
    if (!backend.ok()) return backend.status();
    backend_ = *std::move(backend);
    auto allocator =
        AllocatorRegistry::Global().Build(fleet_.options_.allocator);
    if (!allocator.ok()) return allocator.status();
    allocator_ = *std::move(allocator);
    for (std::size_t j = 0; controller_ != nullptr && j < n_; ++j) {
      if (plan_monitors_[j]->Count() == 0) {
        return ForModel(names_[j],
                        Status::FailedPrecondition(
                            "monitor is empty; call ObserveMixAll before "
                            "ServeAll with a reallocation controller"));
      }
    }
    return tel_ != nullptr ? CheckTelemetry(*tel_, names_) : Status::Ok();
  }

  /// Deploys model j's engine on its own clock, attaches its source and
  /// instruments, and schedules its load shifts — shard events, fired
  /// inside the shard's own barrier-to-barrier advance.
  Status AddShard(std::size_t j, const FleetModelPlan& model_plan) {
    const FleetModelOptions& model = fleet_.model_options_[index_[j]];
    auto config = PlanShare(j, model_plan.budget_per_hour,
                            &model_plan.outcome.config, nullptr);
    if (!config.ok()) return config.status();
    serving::EngineOptions engine_options;
    // Overload is an expected transient here (that is what reallocation
    // reacts to), so the batch early-abort heuristic is off.
    engine_options.run.abort_violation_fraction = 0.0;
    engine_options.run.keep_latencies = options_.keep_latencies;
    engine_options.admission = options_.admission;
    engine_options.launch_lag_s = options_.launch_lag_s;
    engine_options.failure_domains = FailureDomains(model);
    engine_options.seed = fleet_.options_.seed + 1000003 * (j + 1);
    clocks_.push_back(std::make_unique<sim::Simulator>());
    auto engine = fleet_.sessions_[index_[j]].Deploy(*config, engine_options,
                                                     clocks_.back().get());
    if (!engine.ok()) return engine.status();
    auto source =
        SourceFor(model, options_.base_rate_qps * model.arrival_scale);
    if (!source.ok()) return ForModel(names_[j], source.status());
    if (Status s = (*engine)->SubmitSource(**source); !s.ok()) return s;
    if (tel_ != nullptr) {
      instruments_.push_back(tel_->InstrumentsFor(j));
      (*engine)->SetTelemetry(&instruments_.back());
    }
    for (const FleetLoadShift& shift : options_.shifts) {
      if (shift.model != names_[j]) continue;
      clocks_[j]->At(shift.time_s, [engine = engine->get(),
                                    scale = shift.arrival_scale] {
        (void)engine->SetArrivalScale(scale);
      });
    }
    engines_.push_back(*std::move(engine));
    sources_.push_back(*std::move(source));
    return Status::Ok();
  }

  /// A shard's advance touches no other shard (arrivals, completions,
  /// policy rounds, shifts, monitor taps), so shards advance concurrently.
  void AdvanceAll(Time t) {
    if (pool_ != nullptr) {
      ParallelFor(*pool_, n_,
                  [this, t](std::size_t j) { engines_[j]->AdvanceTo(t); });
    } else {
      for (std::size_t j = 0; j < n_; ++j) engines_[j]->AdvanceTo(t);
    }
  }

  void CloseWindows(Time t) {
    std::optional<telemetry::ScopedSpan> span;
    if (tel_ != nullptr) {
      span.emplace(&tel_->tracer(), tel_->fleet_shard(), "window.snapshot");
      span->AddArg("t_s", std::to_string(t));
    }
    for (std::size_t j = 0; j < n_; ++j) {
      windows_[j].push_back(engines_[j]->TakeWindow());
      if (options_.window_probe) options_.window_probe(j, windows_[j].back());
    }
  }

  /// Applies every armed fault due at `t`, then copies fresh hard kills
  /// out of each engine's fault ledger: a notice's delayed kill fires on a
  /// shard clock between barriers, and only the ledger sees it in order.
  void DrainChaos(Time t) {
    if (injector_ == nullptr) return;
    if (t < options_.duration_s - 1e-9) {
      for (chaos::ChaosEvent& event : injector_->Apply(t, *this)) {
        LogChaos(event.model, {event.time, event.kind, names_[event.model],
                               std::move(event.detail)});
      }
    }
    for (std::size_t j = 0; j < n_; ++j) {
      const auto& faults = engines_[j]->Faults();
      for (; faults_drained_[j] < faults.size(); ++faults_drained_[j]) {
        const auto& fault = faults[faults_drained_[j]];
        LogChaos(j, {fault.time,
                     fault.preemption ? chaos::ChaosEventKind::kPreemption
                                      : chaos::ChaosEventKind::kInstanceDeath,
                     names_[j],
                     "hard kill; " + std::to_string(fault.requeued) +
                         " in-flight quer" +
                         (fault.requeued == 1 ? "y" : "ies") + " requeued"});
      }
    }
  }

  /// Appends one of model j's faults to the chaos log; with telemetry,
  /// also counts it and traces it on the model's shard (an index past the
  /// served plan traces on the fleet shard).
  void LogChaos(std::size_t j, FleetChaosEvent event) {
    if (tel_ != nullptr) {
      tel_->metrics().Add(tel_->chaos_faults(), tel_->fleet_shard());
      tel_->tracer().EmitInstant(
          std::min(j, tel_->fleet_shard()), "chaos.fault",
          {{"kind", chaos::ChaosEventName(event.kind)},
           {"detail", event.detail}});
    }
    chaos_log_.push_back(std::move(event));
  }

  /// The control step: snapshot, Decide(), then the action applier.
  Status Control(Time t, bool window_closed) {
    Snapshot(t, window_closed);
    std::optional<telemetry::ScopedSpan> span;
    if (tel_ != nullptr) {
      span.emplace(&tel_->tracer(), tel_->fleet_shard(), "control.decide");
      span->AddArg("controller", controller_->Name());
    }
    const Actions actions = controller_->Decide(snapshot_);
    if (span.has_value()) {
      // The chosen actions ride the span as args — this is how a trace
      // answers "why did the controller fire here?".
      span->AddArg("actions", std::to_string(actions.size()));
      for (std::size_t a = 0; a < actions.size(); ++a) {
        span->AddArg(
            "action" + std::to_string(a),
            std::string(control::ControlActionName(actions[a].kind)) +
                (actions[a].model < n_ ? " " + names_[actions[a].model]
                                       : std::string()) +
                (actions[a].reason.empty() ? "" : ": " + actions[a].reason));
      }
      tel_->metrics().Add(tel_->control_actions(), tel_->fleet_shard(),
                          static_cast<double>(actions.size()));
    }
    return Apply(t, actions);
  }

  /// The control snapshot: refreshes what moved since the last barrier.
  void Snapshot(Time t, bool window_closed) {
    snapshot_.now = t;
    snapshot_.window_closed = window_closed;
    snapshot_.windows_closed = n_ > 0 ? windows_[0].size() : 0;
    snapshot_.last_reallocation = last_realloc_time_;
    const bool live = !live_monitors_.empty();
    for (std::size_t j = 0; j < n_; ++j) {
      control::ModelTelemetry& model = snapshot_.models[j];
      const serving::Engine& engine = *engines_[j];
      model.share_per_hour = shares_[j];
      model.offered = engine.Offered();
      model.served = engine.Served();
      model.backlog = engine.Backlog();
      const double elapsed = std::max(t - last_realloc_time_, 1e-9);
      model.observed_rate_qps =
          static_cast<double>(model.offered - offered_at_realloc_[j]) /
          elapsed;
      // After a kResetMonitor the planning monitor *is* the live window;
      // what the current configuration was planned against is then the
      // frozen reference, not the window's moving mean (which would make
      // plan_mean_batch track live_mean_batch and contradict `drift`).
      model.plan_mean_batch = live && plan_monitors_[j] == &live_monitors_[j]
                                  ? live_monitors_[j].reference_mean_batch()
                                  : plan_monitors_[j]->MeanBatch();
      model.live_mean_batch = live ? live_monitors_[j].MeanBatch() : 0.0;
      model.live_queries = live ? live_monitors_[j].Count() : 0;
      model.drift = live ? live_monitors_[j].BatchMixDrift() : 0.0;
      model.live_instances = engine.AssignableInstances();
      model.target_instances =
          static_cast<std::size_t>(engine.target_config().TotalInstances());
      model.pending_instances = engine.PendingInstances();
      model.instances_lost = engine.InstancesLost();
      model.preemption_notices = engine.PreemptionNotices();
      model.rejected = engine.Rejected();
      model.shed = engine.Shed();
      model.shed_deadline_s = engine.admission().deadline_s;
      // The spot discount this model's capacity rents at right now (1.0 =
      // on-demand): the injector's market quote on its curve.
      const cloud::SpotMarket* market =
          injector_ != nullptr ? injector_->Market(j) : nullptr;
      model.spot_discount = market != nullptr ? market->DiscountAt(t) : 1.0;
    }
  }

  /// Fleet-shard bookkeeping at quiescence: the per-shard event-queue
  /// depth gauge, the barrier counter, and the sink's registry snapshot.
  void Bookkeep(Time t, unsigned kinds) {
    for (std::size_t j = 0; j < n_; ++j) {
      tel_->metrics().Set(tel_->sim_pending_events(), j,
                          static_cast<double>(clocks_[j]->PendingEvents()));
    }
    tel_->metrics().Add(tel_->barriers(), tel_->fleet_shard());
    sink_.AtBarrier(t, kinds);
  }

  /// The action check: every action of the barrier, in the applier's phase
  /// order (list order within a phase), before any action is applied.
  Status CheckActions(const Actions& actions) const {
    for (int phase = 0; phase < kPhases; ++phase) {
      for (const ControlAction& action : actions) {
        if (PhaseOf(action.kind) != phase ||
            action.kind == ControlActionKind::kReallocate) {
          continue;  // a re-split is fleet-wide: `model` is ignored
        }
        const bool reset = action.kind == ControlActionKind::kResetMonitor;
        if (action.model >= n_) {
          const std::string at = "model index " + std::to_string(action.model);
          return Status::InvalidArgument(
              "controller " + controller_->Name() +
              (reset ? " reset the monitor of " + at
                     : " targeted " + at + " with " +
                           control::ControlActionName(action.kind)) +
              ", but the served plan has " + std::to_string(n_) + " models");
        }
        if (reset && live_monitors_.empty()) {
          // Per the FleetController contract a reset-emitting controller
          // must declare NeedsLiveMix(); dropping the reset silently would
          // leave replans on the stale mix with no trace.
          return Status::FailedPrecondition(
              "controller " + controller_->Name() +
              " emitted kResetMonitor but NeedsLiveMix() is false, so no "
              "live mix exists to reset to");
        }
        if (action.kind == ControlActionKind::kBorrowBudget &&
            action.amount_per_hour < 0.0) {
          return Status::InvalidArgument(
              "controller " + controller_->Name() +
              " emitted BORROW_BUDGET with a negative amount (" +
              FormatDollarsPerHour(action.amount_per_hour) + ")");
        }
      }
    }
    return Status::Ok();
  }

  /// The action applier. Phase order, whatever order the controller
  /// listed the actions in: monitor resets run before the barrier's
  /// reallocation — a same-barrier re-plan must read the post-reset mix
  /// (under COMPOSITE a QOS-triggered reallocation can precede DRIFT's
  /// resets in the list) — then loans, chaos recoveries and shedding.
  Status Apply(Time t, const Actions& actions) {
    if (Status s = CheckActions(actions); !s.ok()) return s;
    for (const ControlAction& action : actions) {
      if (action.kind != ControlActionKind::kResetMonitor) continue;
      // An empty live window waits until the stream has produced samples.
      workload::QueryMonitor& live = live_monitors_[action.model];
      if (live.Count() == 0) continue;
      plan_monitors_[action.model] = &live;
      live.MarkPlanningReference();
      ++monitor_resets_;
      Log(t, action);
    }
    const auto realloc =
        std::find_if(actions.begin(), actions.end(), [](const auto& action) {
          return action.kind == ControlActionKind::kReallocate;
        });
    if (realloc != actions.end()) {
      // At most one re-split per barrier: it re-derives every share and
      // replans and reconfigures every model, so the barrier's loans and
      // recoveries are skipped. It returns all borrowed headroom to the
      // pool first.
      const double interval = realloc->interval_s > 0.0
                                  ? realloc->interval_s
                                  : std::max(t - last_realloc_time_, 1e-9);
      ledger_.RepayAll(shares_);
      if (Status s = Rebalance(interval); !s.ok()) return s;
      last_realloc_time_ = t;
      control_log_.push_back(
          FleetControlEvent{t, realloc->kind, "", realloc->reason});
    } else {
      if (Status s = MoveLoans(t, actions); !s.ok()) return s;
      if (Status s = Recover(t, actions); !s.ok()) return s;
    }
    return SetShed(t, actions);
  }

  /// Loan-ledger changes, before the recoveries so a same-barrier kFailover
  /// replans at the new share. The first action on a model wins.
  Status MoveLoans(Time t, const Actions& actions) {
    ClearClaims();
    for (const ControlAction& action : actions) {
      if (action.kind != ControlActionKind::kBorrowBudget ||
          !Claim(action.model)) {
        continue;
      }
      const std::size_t j = action.model;
      // A same-barrier kFailover replans this model anyway: the ledger only
      // moves the shares here, and that replan picks them up.
      const bool replanned_later = std::any_of(
          actions.begin(), actions.end(), [j](const ControlAction& other) {
            return other.kind == ControlActionKind::kFailover &&
                   other.model == j;
          });
      // Whoever shrinks replans first, so the share invariant never lapses:
      // the donors of a borrow, the borrower of a repayment.
      std::vector<LoanLedger::Loan> repaid;
      if (action.amount_per_hour > 0.0) {
        const auto grants =
            ledger_.Borrow(j, action.amount_per_hour, fleet_.floor_, shares_);
        if (!grants.has_value()) continue;  // no headroom: loan declined
        for (const LoanLedger::Loan& loan : *grants) {
          if (Status s = Replan(loan.donor); !s.ok()) return s;
        }
      } else {
        if (!ledger_.Owes(j)) continue;
        repaid = ledger_.Repay(j, shares_);
      }
      if (!replanned_later) {
        if (Status s = Replan(j); !s.ok()) return s;
      }
      for (const LoanLedger::Loan& loan : repaid) {
        if (Status s = Replan(loan.donor); !s.ok()) return s;
      }
      Log(t, action);
    }
    return Status::Ok();
  }

  /// Chaos recoveries: one per model per barrier (the first action wins).
  Status Recover(Time t, const Actions& actions) {
    ClearClaims();
    for (const ControlAction& action : actions) {
      if ((action.kind != ControlActionKind::kRespread &&
           action.kind != ControlActionKind::kFailover) ||
          !Claim(action.model)) {
        continue;
      }
      const std::size_t j = action.model;
      if (action.kind == ControlActionKind::kFailover) {
        if (Status s = Replan(j); !s.ok()) return s;
        ++failovers_;
      } else {
        // Re-issue the target: lost and retiring capacity is out of the
        // live count, so replacements launch now, inside a notice window.
        const Status s = engines_[j]->Reconfigure(engines_[j]->target_config());
        if (!s.ok()) return s;
        ++respreads_;
      }
      Log(t, action);
    }
    return Status::Ok();
  }

  /// Shed-knob changes, last and even after a re-split: shedding is an
  /// admission regime, not capacity. The first action on a model wins.
  Status SetShed(Time t, const Actions& actions) {
    ClearClaims();
    for (const ControlAction& action : actions) {
      if (action.kind != ControlActionKind::kSetShed || !Claim(action.model)) {
        continue;
      }
      serving::Engine& engine = *engines_[action.model];
      serving::AdmissionOptions admission = engine.admission();
      admission.deadline_s = action.deadline_s;
      if (Status s = engine.SetAdmission(admission); !s.ok()) return s;
      ++shed_actions_;
      Log(t, action);
    }
    return Status::Ok();
  }

  /// kReallocate: arrival rates observed over `interval_s` become demand
  /// weights, the budget is re-split, and every model is re-planned.
  Status Rebalance(double interval_s) {
    std::optional<telemetry::ScopedSpan> span;
    if (tel_ != nullptr) {
      span.emplace(&tel_->tracer(), tel_->fleet_shard(), "fleet.realloc");
      span->AddArg("interval_s", std::to_string(interval_s));
    }
    auto problem = fleet_.Allocation(index_);
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t offered_now = engines_[j]->Offered();
      const double observed_rate =
          static_cast<double>(offered_now - offered_at_realloc_[j]) /
          interval_s;
      offered_at_realloc_[j] = offered_now;
      problem.models[j].arrival_scale = std::max(observed_rate, 1e-6);
    }
    problem.probe = [this](std::size_t j, double budget) {
      return ProbeModel(*backend_, fleet_.sessions_[index_[j]],
                        *plan_monitors_[j], options_.search, budget);
    };
    auto split = allocator_->Allocate(problem);
    if (!split.ok()) return split.status();
    shares_ = *std::move(split);
    for (std::size_t j = 0; j < n_; ++j) {
      if (Status s = Replan(j); !s.ok()) return s;
    }
    ++reallocations_;
    return Status::Ok();
  }

  /// Re-plans model j inside its current share against its planning mix
  /// and reconfigures its live engine in place (launch lag modeled).
  Status Replan(std::size_t j) {
    std::optional<telemetry::ScopedSpan> span;
    std::shared_ptr<std::atomic<std::uint64_t>> trials;
    auto config = PlanShare(j, shares_[j], nullptr, [&](PlanRequest& request) {
      if (tel_ == nullptr) return;
      span.emplace(&tel_->tracer(), tel_->fleet_shard(), "fleet.replan");
      span->AddArg("model", names_[j]);
      span->AddArg("budget_per_hour", std::to_string(shares_[j]));
      if (request.eval == nullptr) return;
      // Per-trial spans; the count, shared with the EvalFn's copies, lands
      // on the fleet shard's counter once the plan is done.
      trials = std::make_shared<std::atomic<std::uint64_t>>(0);
      request.eval = [inner = std::move(request.eval), tracer = &tel_->tracer(),
                      shard = tel_->fleet_shard(), trials,
                      model = names_[j]](const cloud::Config& candidate) {
        telemetry::ScopedSpan trial(tracer, shard, "planner.eval");
        trial.AddArg("model", model);
        trial.AddArg("instances", std::to_string(candidate.TotalInstances()));
        trials->fetch_add(1, std::memory_order_relaxed);
        return inner(candidate);
      };
    });
    if (trials != nullptr) {
      tel_->metrics().Add(
          tel_->planner_trials(), tel_->fleet_shard(),
          static_cast<double>(trials->load(std::memory_order_relaxed)));
    }
    if (!config.ok()) return config.status();
    if (Status s = engines_[j]->Reconfigure(*config); !s.ok()) return s;
    // A model already moved to the live window was just replanned against
    // it: the window's current mean is the new planning-time reference.
    if (!live_monitors_.empty() && plan_monitors_[j] == &live_monitors_[j]) {
      live_monitors_[j].MarkPlanningReference();
    }
    return Status::Ok();
  }

  /// The one place a served model is sized (DESIGN.md Sec. 11): an N-1
  /// sized model plans its core inside its core budget, then pads each
  /// type so losing the largest failure domain leaves the core intact.
  /// Any other model plans inside the whole share — or reuses `planned`,
  /// a plan already made at that share.
  StatusOr<cloud::Config> PlanShare(
      std::size_t j, double share, const cloud::Config* planned,
      const std::function<void(PlanRequest&)>& instrument) {
    const std::size_t i = index_[j];
    const CoreBudget core =
        CoreBudgetFor(fleet_.model_options_[i], share, fleet_.floor_);
    if (!core.n_minus_one && planned != nullptr) return *planned;
    auto outcome = PlanModel(*backend_, fleet_.sessions_[i], *plan_monitors_[j],
                             options_.search, core.budget, instrument);
    if (!outcome.ok()) return ForModel(names_[j], outcome.status());
    if (!core.n_minus_one) return std::move(outcome->config);
    return PadForDomainLoss(outcome->config, core.domains, share,
                            fleet_.catalog_);
  }

  /// True the first time model j is claimed since the last ClearClaims().
  bool Claim(std::size_t j) {
    if (claimed_[j]) return false;
    claimed_[j] = true;
    return true;
  }
  void ClearClaims() { std::fill(claimed_.begin(), claimed_.end(), false); }

  void Log(Time t, const ControlAction& action) {
    control_log_.push_back(
        FleetControlEvent{t, action.kind, names_[action.model], action.reason});
  }

  const Fleet& fleet_;
  const std::vector<std::size_t> index_;
  const FleetServeOptions options_;
  const std::size_t n_;
  /// The telemetry plane (DESIGN.md Sec. 13); nullptr disables all of it,
  /// bit-identical to a build without the subsystem.
  telemetry::Telemetry* const tel_;
  std::vector<std::string> names_;  ///< serving names

  std::unique_ptr<control::FleetController> controller_;  ///< null: frozen
  std::shared_ptr<chaos::ChaosInjector> injector_;         ///< null: no chaos
  std::unique_ptr<PlannerBackend> backend_;
  std::unique_ptr<BudgetAllocator> allocator_;

  // The shard set. Clocks are declared before the engines so in-flight
  // events (which hold engine pointers) are freed after the engines.
  std::vector<std::unique_ptr<sim::Simulator>> clocks_;
  std::vector<std::unique_ptr<serving::Engine>> engines_;
  std::vector<std::unique_ptr<workload::QuerySource>> sources_;
  std::vector<std::vector<serving::WindowedMetrics>> windows_;
  std::vector<telemetry::EngineInstruments> instruments_;
  std::vector<std::unique_ptr<rpc::NetworkModel>> fabrics_;  ///< degraded
  std::vector<workload::QueryMonitor> live_monitors_;  ///< empty: no tap
  std::map<Time, unsigned> barriers_;

  // Control state. Model j plans against its session monitor until a
  // kResetMonitor moves it to the live window.
  std::vector<double> shares_;
  std::vector<const workload::QueryMonitor*> plan_monitors_;
  std::vector<std::size_t> offered_at_realloc_;
  Time last_realloc_time_ = 0.0;
  LoanLedger ledger_;
  std::vector<bool> claimed_;  ///< first action per model, this phase
  std::size_t reallocations_ = 0;
  std::size_t monitor_resets_ = 0;
  std::size_t respreads_ = 0;
  std::size_t failovers_ = 0;
  std::size_t shed_actions_ = 0;
  std::vector<FleetControlEvent> control_log_;
  std::vector<FleetChaosEvent> chaos_log_;
  std::vector<std::size_t> faults_drained_;  ///< fault-ledger entries read
  /// Reused across barriers; the window vectors it points at never move.
  control::FleetTelemetry snapshot_;
  telemetry::TelemetrySink sink_;
  std::unique_ptr<ThreadPool> pool_;  ///< null: shards advance serially
};

Fleet::Fleet(const cloud::Catalog& catalog, FleetOptions options,
             double floor)
    : catalog_(catalog), options_(std::move(options)), floor_(floor) {}

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
    const char* invalid =
        m.weight <= 0.0          ? "weight must be positive"
        : m.arrival_scale <= 0.0 ? "arrival_scale must be positive"
        : m.qos_scale <= 0.0     ? "qos_scale must be positive"
        : m.monitor_warmup == 0  ? "monitor_warmup must be positive"
                                 : nullptr;
    if (invalid != nullptr) {
      return ForModel(serve_name(m), Status::InvalidArgument(invalid));
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

  Fleet fleet(catalog, options, *min_base);
  for (const FleetModelOptions& m : models) {
    // File-backed traces (STREAM / TRACE) carry no batch mix of their
    // own: ObserveMixAll / MeasureAll fall back to the caller-provided mix
    // (nullptr entry), and ServeAll replays the file.
    std::unique_ptr<workload::BatchDistribution> mix;
    if (IsFileBackedTrace(CanonicalName(m.trace))) {
      if (m.trace_path.empty()) {
        return ForModel(serve_name(m),
                        Status::InvalidArgument(
                            "trace \"" + m.trace +
                            "\" replays a file; set trace_path to a trace "
                            "CSV"));
      }
    } else {
      auto trace = MakeTrace(m.trace);
      if (!trace.ok()) return ForModel(serve_name(m), trace.status());
      mix = *std::move(trace);
    }
    fleet.names_.push_back(serve_name(m));
    fleet.mixes_.push_back(std::move(mix));
    fleet.model_options_.push_back(m);
  }

  // Surface infeasible constraints at construction time. Probe-free
  // allocators (STATIC) can run in full; probe-driven ones (MARGINAL)
  // re-split at every PlanAll(), so only their floors are checked here.
  std::vector<double> create_shares;
  if (!(*allocator)->NeedsProbes()) {
    auto shares =
        (*allocator)->Allocate(fleet.Allocation(AllOf(models.size())));
    if (!shares.ok()) return shares.status();
    create_shares = *std::move(shares);
  } else {
    // Summed as ValidateProblem sums, so both checks agree to the bit.
    double floor_sum = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) floor_sum += fleet.floor_;
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
    for (const FleetModelOptions& m : models) {
      create_shares.push_back(fleet.floor_ +
                              spendable * m.weight / total_weight);
    }
  }

  for (std::size_t i = 0; i < models.size(); ++i) {
    KairosOptions session_options;
    session_options.budget_per_hour = create_shares[i];
    session_options.qos_scale = models[i].qos_scale;
    session_options.monitor_warmup = models[i].monitor_warmup;
    session_options.seed = options.seed;
    auto session = Kairos::Create(catalog, models[i].model, session_options);
    if (!session.ok()) return session.status();
    fleet.sessions_.push_back(*std::move(session));
  }
  return fleet;
}

StatusOr<std::size_t> Fleet::Find(const std::string& model) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == model) return i;
  }
  return Status::NotFound("model " + model + " is not in this fleet");
}

StatusOr<std::vector<std::size_t>> Fleet::Resolve(const FleetPlan& plan) const {
  std::vector<std::size_t> indices;
  indices.reserve(plan.models.size());
  for (const FleetModelPlan& model_plan : plan.models) {
    auto i = Find(model_plan.model);
    if (!i.ok()) return i.status();
    indices.push_back(*i);
  }
  return indices;
}

const workload::BatchDistribution& Fleet::MixFor(
    std::size_t i, const workload::BatchDistribution& fallback) const {
  return mixes_[i] != nullptr ? *mixes_[i] : fallback;
}

AllocationProblem Fleet::Allocation(
    const std::vector<std::size_t>& models) const {
  AllocationProblem problem;
  problem.budget_per_hour = options_.budget_per_hour;
  problem.threads = options_.planning_threads;
  for (const std::size_t i : models) {
    problem.models.push_back(AllocModel{names_[i], model_options_[i].weight,
                                        model_options_[i].arrival_scale,
                                        floor_});
  }
  return problem;
}

StatusOr<const Kairos*> Fleet::Session(const std::string& model) const {
  auto i = Find(model);
  if (!i.ok()) return i.status();
  return &sessions_[*i];
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

  const std::size_t n = sessions_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (sessions_[i].monitor().Count() == 0) {
      return ForModel(names_[i], Status::FailedPrecondition(
                                     "monitor is empty; call ObserveMixAll "
                                     "before PlanAll"));
    }
  }

  // Split the budget. The probe answers "what would the backend achieve
  // for model i at budget b" analytically (PlannerBackend::Probe), so the
  // MARGINAL allocator can afford one probe per candidate per increment;
  // probes of independent models run concurrently.
  auto problem = Allocation(AllOf(n));
  problem.probe = [&](std::size_t i, double budget) {
    return ProbeModel(**backend, sessions_[i], sessions_[i].monitor(), search,
                      budget);
  };
  auto shares = (*allocator)->Allocate(problem);
  if (!shares.ok()) return shares.status();

  // Plan every model inside its share, concurrently: sessions, backends
  // and allocators are stateless const objects, and each worker writes
  // only its own slot.
  std::vector<Status> statuses(n);
  std::vector<PlannerOutcome> outcomes(n);
  ParallelFor(n, options_.planning_threads, [&](std::size_t i) {
    auto outcome = PlanModel(**backend, sessions_[i], sessions_[i].monitor(),
                             search, (*shares)[i], nullptr);
    if (!outcome.ok()) {
      statuses[i] = outcome.status();
    } else {
      outcomes[i] = *std::move(outcome);
    }
  });

  FleetPlan plan;
  plan.budget_per_hour = options_.budget_per_hour;
  for (std::size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return ForModel(names_[i], statuses[i]);
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
  if (Status s = CheckServeOptions(options); !s.ok()) return s;
  auto indices = Resolve(plan);
  if (!indices.ok()) return indices.status();
  Run run(*this, *std::move(indices), std::move(options));
  Status status = run.Build(plan);
  if (status.ok()) status = run.Walk();
  if (!status.ok()) return status;
  return run.Fold();
}

StatusOr<FleetMeasurement> Fleet::MeasureAll(
    const FleetPlan& plan, const workload::BatchDistribution& mix,
    serving::EvalOptions eval_options) const {
  auto indices = Resolve(plan);
  if (!indices.ok()) return indices.status();

  // Measurements of independent models share nothing; run them in
  // parallel, each under the model's own trace when one is set.
  std::vector<serving::EvalResult> results(plan.models.size());
  ParallelFor(plan.models.size(), options_.planning_threads,
              [&](std::size_t j) {
                const FleetModelPlan& model_plan = plan.models[j];
                const std::size_t i = (*indices)[j];
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
        model_options_[(*indices)[j]].arrival_scale * m.result.qps;
    measurement.models.push_back(std::move(m));
  }
  return measurement;
}

}  // namespace kairos::core
