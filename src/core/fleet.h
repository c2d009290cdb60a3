// Multi-model fleet facade: several Kairos sessions — one per served
// model — under a single global $/hr budget. The fleet splits the budget
// across models with a registry-selected allocator (STATIC weights or
// MARGINAL water-filling on probed QPS-per-dollar), plans each model's
// heterogeneous configuration with a registry-selected planner backend
// (independent models planned concurrently on a small thread pool), and
// offers aggregate deploy / measure entry points over per-model workload
// mixes. This generalizes the paper's co-design scenario (Fig. 14) to
// multi-tenant serving: the operator states one budget and a model mix,
// the fleet answers "what do I rent for each model?".
//
// All fallible entry points return Status / StatusOr (unknown model,
// planner, allocator or trace names, infeasible budget shares) — nothing
// here throws.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/injector.h"
#include "common/status.h"
#include "control/controller.h"
#include "core/allocator.h"
#include "core/kairos.h"
#include "core/planner_backend.h"
#include "serving/engine.h"
#include "telemetry/telemetry.h"

namespace kairos::core {

/// One model served by the fleet.
struct FleetModelOptions {
  std::string model;   ///< Table-3 name ("RM2", "DIEN", ...)
  /// Fleet-unique serving name; "" defaults to `model`. Aliases let one
  /// fleet serve several *independent* streams of the same Table-3 model
  /// (multi-tenant shards, e.g. {"RM2-eu", "RM2-us"}), each with its own
  /// session, budget share and traffic; every lookup (Session, load
  /// shifts, plan/serve results) goes by this name.
  std::string name;
  /// Allocation prior: under STATIC the model receives
  /// weight / sum(weights) of the global budget; under MARGINAL the
  /// weight only breaks ties between equal marginal utilities. Must be
  /// positive.
  double weight = 1.0;
  /// This model's share of fleet arrival traffic relative to the others.
  /// MARGINAL multiplies the model's marginal QPS by this factor, and
  /// MeasureAll() reports an arrival-weighted aggregate next to the raw
  /// sum. Must be positive.
  double arrival_scale = 1.0;
  /// Per-model workload mix by name: "" (use the distribution the caller
  /// passes to ObserveMixAll / MeasureAll), "PRODUCTION" (log-normal
  /// production trace) or "GAUSSIAN" (the Fig. 12/16 sensitivity mix).
  /// Lets one fleet mix models that see different traffic shapes. Two
  /// file-backed names route ServeAll's arrival stream to `trace_path`
  /// instead of a synthetic process: "STREAM" pulls the CSV through a
  /// StreamingTraceReader in bounded-memory chunks (the million-user
  /// scale path, DESIGN.md Sec. 12) and "TRACE" materializes the same
  /// file up front — the two replay bit-identical query sequences, so
  /// TRACE is the oracle STREAM is tested against. Both fall back to
  /// the caller-provided mix for ObserveMixAll / MeasureAll.
  std::string trace;
  /// Trace CSV file backing this model's arrival stream; required
  /// non-empty when `trace` is "STREAM" or "TRACE" (".gz" accepted when
  /// zlib is built in), ignored otherwise.
  std::string trace_path;
  /// Multiplier on the model's Table-3 QoS target.
  double qos_scale = 1.0;
  /// Sliding window of the model's query monitor. Must be positive.
  std::size_t monitor_warmup = 10000;
  /// Failure domains (racks / AZs) this model's instances are spread over
  /// at deploy time, round-robin in launch order (DESIGN.md Sec. 11).
  /// Pure chaos metadata: 1 (the default; 0 behaves as 1) puts everything
  /// in one domain and changes nothing else — runs that configure domains
  /// but inject no chaos stay bit-identical.
  std::size_t failure_domains = 1;
  /// Chaos-aware N-1 planning: when true (and failure_domains >= 2),
  /// every plan/replan of this model sizes the configuration so that
  /// losing its largest failure domain still leaves at least the
  /// QoS-feasible core — the core is planned at (d-1)/d of the share and
  /// each instance count is padded so ceil(count/d) survivors per type
  /// remain after a domain loss, trimmed back (most expensive type first)
  /// if padding would overrun the share. Proactive resilience instead of
  /// reacting after the kill.
  bool plan_n_minus_one = false;
};

/// Fleet-wide knobs.
struct FleetOptions {
  /// Global hourly budget shared by every model.
  double budget_per_hour = 5.0;
  /// Planner backend (PlannerRegistry name) used by PlanAll().
  std::string planner = "KAIROS";
  /// Budget allocator (AllocatorRegistry name): "STATIC" reproduces the
  /// weight-proportional split, "MARGINAL" water-fills on probed marginal
  /// QPS per dollar (see core/allocator.h).
  std::string allocator = "STATIC";
  /// Threads used to probe / plan / measure independent models
  /// concurrently; 0 = hardware concurrency, 1 = serial.
  std::size_t planning_threads = 0;
  std::uint64_t seed = 7;
};

/// One model's slice of a fleet plan.
struct FleetModelPlan {
  std::string model;
  double budget_per_hour = 0.0;  ///< the share the allocator granted
  double qos_ms = 0.0;           ///< effective QoS target
  PlannerOutcome outcome;        ///< what the backend chose
  double cost_per_hour = 0.0;    ///< actual cost of the chosen config
};

/// The fleet-wide answer. Invariants (asserted by tests/api_test.cc and
/// tests/fleet_allocator_test.cc), for every model i:
///
///   1. floor <= models[i].budget_per_hour, where the floor is the price
///      of the catalog's cheapest base instance;
///   2. sum_i models[i].budget_per_hour <= budget_per_hour — allocators
///      may leave budget unspent (all marginals zero), never overspend;
///   3. models[i].cost_per_hour <= models[i].budget_per_hour — each
///      chosen config fits inside its own share, so the fleet as a whole
///      fits the global budget;
///   4. every chosen config keeps >= 1 base instance (QoS feasibility for
///      the largest batches, paper Sec. 4);
///   5. models[] preserves the order models were listed in at Create().
struct FleetPlan {
  std::vector<FleetModelPlan> models;
  double budget_per_hour = 0.0;     ///< the global budget
  double total_cost_per_hour = 0.0; ///< sum of chosen-config costs
};

/// One model's measured allowable throughput.
struct FleetModelMeasurement {
  std::string model;
  serving::EvalResult result;
};

/// Aggregate measurement over a FleetPlan.
struct FleetMeasurement {
  std::vector<FleetModelMeasurement> models;
  double total_qps = 0.0;  ///< sum of per-model allowable throughputs
  /// Arrival-weighted aggregate: sum of arrival_scale_i * qps_i. Equals
  /// total_qps when every model keeps the default arrival_scale of 1.
  double total_weighted_qps = 0.0;
};

/// One scheduled mid-run arrival-rate change inside Fleet::ServeAll
/// (Fig. 12's load change, expressed as a co-simulation event).
struct FleetLoadShift {
  double time_s = 0.0;         ///< simulated time of the change
  std::string model;           ///< whose arrival stream to rescale
  double arrival_scale = 1.0;  ///< new multiplier on the model's base rate
};

/// Knobs of the fleet co-simulation (ServeAll).
struct FleetServeOptions {
  /// Simulated horizon in seconds; completions after it do not count.
  double duration_s = 60.0;
  /// Model i's offered arrival rate is base_rate_qps * arrival_scale_i
  /// (times any FleetLoadShift in effect).
  double base_rate_qps = 40.0;
  /// Cadence of per-model WindowedMetrics snapshots.
  double window_s = 5.0;
  /// Control-plane strategy (ControllerRegistry name: PERIODIC, QOS,
  /// BACKLOG, DRIFT, SHED, FAILOVER, COMPOSITE). "" = frozen allocation:
  /// no control loop, the initial plan serves the whole run. The
  /// controller is consulted at every barrier of the merged
  /// window/decision grid with a FleetTelemetry snapshot and its
  /// ControlActions are applied to the live engines (see
  /// control/controller.h). Periodic reallocation is "PERIODIC" with a
  /// "period_s" knob: every period the fleet reads each model's observed
  /// arrival rate over the elapsed period, re-splits the global budget
  /// with the configured allocator (demand-weighted), re-plans every
  /// model inside its new share, and reconfigures the live engines
  /// (instance launches obey launch_lag_s).
  std::string controller;
  /// Knob overrides for the named controller (e.g. QOS's "p99_scale",
  /// PERIODIC's "period_s").
  control::KnobMap controller_knobs;
  /// Chaos injector (ChaosRegistry name: SPOT_PREEMPTION, INSTANCE_DEATH,
  /// NET_DEGRADE, COMPOSITE). "" = no chaos — the run is bit-identical to
  /// a build without the chaos subsystem (tests/chaos_test.cc). The
  /// injector is armed on the run's schedule, its fault times become
  /// extra barriers, and its faults are applied on the driving thread
  /// with every shard quiesced, so chaos runs are bit-identical for every
  /// serve_threads value too.
  std::string chaos;
  /// Knob overrides for the named injector (e.g. "rate_per_hour").
  chaos::KnobMap chaos_knobs;
  /// Programmatic injector (e.g. MakeScriptedChaos); mutually exclusive
  /// with `chaos`. Shared so one injector can be compared across runs;
  /// Arm() fully resets it per run.
  std::shared_ptr<chaos::ChaosInjector> injector;
  /// Engine launch lag for mid-run reconfigurations, simulated seconds.
  double launch_lag_s = 1.0;
  /// Threads advancing the per-model shards concurrently between barriers
  /// (0 = hardware concurrency, 1 = serial). Any value produces
  /// bit-identical results — shards only meet at barriers, so the windowed
  /// metrics, totals and final allocations never depend on the thread
  /// count (asserted by tests/fleet_serve_test.cc).
  std::size_t serve_threads = 0;
  /// Scheduled arrival-rate changes.
  std::vector<FleetLoadShift> shifts;
  /// Planning knobs for the periodic re-plans.
  search::SearchOptions search;
  /// Admission control applied to every model's engine (bounded queue,
  /// static shed deadline). All-zero (the default) admits everything —
  /// bit-identical to a run without admission control. A SHED controller
  /// adjusts only the deadline knob per model on top of this base.
  serving::AdmissionOptions admission;
  /// When false, engines drop per-query latency samples after folding
  /// them into the running mean — RunResult::latencies_ms stays empty
  /// (cumulative p99 reads 0; windowed p99 is unaffected). The
  /// sustained-throughput path: resident memory stays bounded while
  /// streaming tens of millions of queries.
  bool keep_latencies = true;
  /// Observation hook called on the driving thread right after each
  /// window barrier snapshot, once per model in plan order: probe(model
  /// index, the model's just-closed window). Pure observer — it must not
  /// mutate the fleet — letting a harness watch steady-state behavior
  /// (e.g. perf_suite's allocation-per-window audit) without buffering
  /// every window itself. Null (the default) disables the hook and is
  /// bit-identical to a build without it.
  std::function<void(std::size_t, const serving::WindowedMetrics&)>
      window_probe;
  /// Telemetry plane (telemetry/telemetry.h): when set, every shard's
  /// engine is instrumented, the driving thread emits barrier spans, and
  /// the registry is snapshotted at every barrier into
  /// FleetServeResult::telemetry_samples. Must have been Create()d with
  /// exactly this fleet's model names (plan order) — kInvalidArgument
  /// otherwise. nullptr (the default) disables the plane entirely; a
  /// disabled run is bit-identical to a build without telemetry
  /// (tests/telemetry_test.cc). The Telemetry must outlive the call.
  telemetry::Telemetry* telemetry = nullptr;
};

/// One model's outcome of a fleet co-simulation.
struct FleetModelServe {
  std::string model;
  /// Cumulative engine totals at the horizon (includes every completion
  /// with finish <= duration_s; queued work is not credited).
  serving::RunResult totals;
  /// Windowed snapshots, one per window_s slice (shared boundaries across
  /// all models — they ride one clock).
  std::vector<serving::WindowedMetrics> windows;
  /// totals.served / duration_s.
  double qps = 0.0;
  /// Instances lost to chaos (preemption hard kills + abrupt deaths).
  std::size_t instances_lost = 0;
  /// Spot reclamation notices issued against this model.
  std::size_t preemption_notices = 0;
  /// Billed spend at the catalog's on-demand prices over the run, from
  /// the engine's billing census (pending launches bill while booting,
  /// retired instances stop billing at the kill — the same doctrine as
  /// cloud::PlanReconfiguration).
  double ondemand_cost_usd = 0.0;
  /// The same spend with the model's spot market discount applied when
  /// the injector quotes one (cloud::SpotCost); equals ondemand_cost_usd
  /// on on-demand models. "Equal effective cost" comparisons between
  /// chaos-aware and chaos-blind runs use this.
  double effective_cost_usd = 0.0;
};

/// One applied control-plane decision (FleetServeResult::control_log).
struct FleetControlEvent {
  Time time = 0.0;                  ///< barrier the action fired at
  control::ControlActionKind kind = control::ControlActionKind::kReallocate;
  std::string model;                ///< target serving name; "" = fleet-wide
  std::string reason;               ///< the controller's stated trigger
};

/// One applied chaos fault (FleetServeResult::chaos_log).
struct FleetChaosEvent {
  Time time = 0.0;  ///< when the fault landed (notice / kill / degrade)
  chaos::ChaosEventKind kind = chaos::ChaosEventKind::kInstanceDeath;
  std::string model;   ///< target serving name
  std::string detail;  ///< injector- or engine-provided specifics
};

/// The fleet co-simulation answer.
struct FleetServeResult {
  std::vector<FleetModelServe> models;  ///< plan order
  double duration_s = 0.0;
  double total_qps = 0.0;  ///< sum of per-model qps
  /// sum of arrival_scale_i * qps_i — the same demand weighting as
  /// FleetMeasurement::total_weighted_qps.
  double total_weighted_qps = 0.0;
  /// Allocator re-invocations that actually ran.
  std::size_t reallocations = 0;
  /// Monitor resets applied (DRIFT switching a model's planning mix to
  /// the live stream).
  std::size_t monitor_resets = 0;
  /// Chaos recoveries applied: target re-issues (kRespread) and per-model
  /// replans (kFailover).
  std::size_t respreads = 0;
  std::size_t failovers = 0;
  /// Shed-knob changes applied (kSetShed arms and restores both count).
  std::size_t shed_actions = 0;
  /// Budget-borrowing actions applied (kBorrowBudget): grants taken from
  /// donor headroom, and paybacks returning them.
  std::size_t borrows = 0;
  std::size_t paybacks = 0;
  /// Cumulative $/hr moved through the loan ledger: everything borrowed
  /// and everything repaid. Loans still outstanding at the horizon are
  /// force-repaid into these totals, so borrow == payback holds exactly
  /// at the end of every run (the conservation invariant, DESIGN.md
  /// Sec. 11; asserted by bench/fig18_chaos and tests/control_test.cc).
  double budget_borrowed_per_hour = 0.0;
  double budget_repaid_per_hour = 0.0;
  /// Instances lost to chaos across the fleet; sum over models.
  std::size_t instances_lost = 0;
  /// Spot reclamation notices issued across the fleet; sum over models.
  std::size_t preemption_notices = 0;
  /// Every applied ControlAction in barrier order. Deterministic: the
  /// same sequence for every serve_threads value (tests/control_test.cc).
  std::vector<FleetControlEvent> control_log;
  /// Every chaos fault in time order, notices and kills included. Same
  /// determinism guarantee; empty without an injector.
  std::vector<FleetChaosEvent> chaos_log;
  /// Per-model $/hr shares after the last reallocation (the initial plan's
  /// shares when none ran); plan order.
  std::vector<double> final_shares_per_hour;
  /// Fleet billed spend over the run: catalog on-demand prices, and the
  /// same with each model's spot discount applied (sums of the per-model
  /// fields). Zero-chaos runs report both equal.
  double ondemand_cost_usd = 0.0;
  double effective_cost_usd = 0.0;
  /// effective_cost_usd scaled to an hourly rate over duration_s.
  double effective_cost_per_hour = 0.0;
  /// One registry snapshot per ServeAll barrier, barrier order — filled
  /// only when FleetServeOptions::telemetry is set (empty otherwise; the
  /// rest of the result is bit-identical either way).
  std::vector<telemetry::BarrierSample> telemetry_samples;
  /// Barrier samples not stored because the sink's bound was hit.
  std::uint64_t telemetry_samples_dropped = 0;
};

/// A set of Kairos sessions planned and measured together.
class Fleet {
 public:
  /// Validates the request and builds one Kairos session per model.
  /// Errors: kInvalidArgument (empty model list, duplicate model,
  /// weight / arrival_scale / qos_scale <= 0, monitor_warmup == 0, a
  /// STREAM / TRACE model without trace_path), kNotFound (unknown model,
  /// planner, allocator or trace name, listing alternatives), kInfeasible
  /// (a STATIC share below its floor, or floors that together exceed the
  /// global budget).
  static StatusOr<Fleet> Create(const cloud::Catalog& catalog,
                                std::vector<FleetModelOptions> models,
                                FleetOptions options = {});

  std::size_t size() const { return sessions_.size(); }
  const FleetOptions& options() const { return options_; }

  /// The session serving `model`, or kNotFound. Its budget is the
  /// model's prior share: the STATIC split, or under MARGINAL the floor
  /// plus a weight split of what the floors leave. The authoritative
  /// share of a planning pass is FleetModelPlan::budget_per_hour.
  /// Session(model)->Deploy(config) builds an engine serving one model's
  /// configuration.
  StatusOr<const Kairos*> Session(const std::string& model) const;

  /// Warms every model's monitor — each from its own trace when set,
  /// from `mix` otherwise.
  void ObserveMixAll(const workload::BatchDistribution& mix);

  /// Splits the global budget with the configured allocator (MARGINAL
  /// probes candidate budgets through PlannerBackend::Probe, independent
  /// models concurrently), then plans every model inside its share with
  /// the configured planner backend, also concurrently.
  /// Evaluation-driven backends (KAIROS+, BRUTE-FORCE) measure real
  /// throughput against each model's monitored empirical mix.
  /// kFailedPrecondition when a monitor is empty.
  StatusOr<FleetPlan> PlanAll(
      const search::SearchOptions& search = {}) const;

  /// Measures allowable throughput of every planned model, concurrently,
  /// under the model's own trace when set and `mix` otherwise, through
  /// Kairos::MeasureThroughput (each rate trial a batch run on a fresh
  /// serving::Engine). Each model's rate bracketing starts from half its
  /// planned expected_qps when available (otherwise
  /// `eval_options.rate_guess`). ServeAll is the online, co-simulated view
  /// of the same fleet.
  StatusOr<FleetMeasurement> MeasureAll(
      const FleetPlan& plan, const workload::BatchDistribution& mix,
      serving::EvalOptions eval_options = {}) const;

  /// Serves every model of `plan` *online*, co-simulated on one shared
  /// window grid. Each model is a shard — its own engine on its own
  /// clock — and all shards advance concurrently (serve_threads workers)
  /// to each barrier of the merged window/decision grid, join, run the
  /// shared step on the driving thread, and repeat; shards share no
  /// mutable state between barriers, so the results are bit-identical
  /// for every thread count. Each model streams from a registry-built
  /// QuerySource — its named trace mix when set, PRODUCTION otherwise —
  /// at base_rate_qps * arrival_scale_i, Poisson arrivals;
  /// FleetLoadShifts rescale a model's stream mid-run.
  ///
  /// The shared barrier step is the control plane: window snapshots are
  /// taken, a FleetTelemetry snapshot is built (windowed metrics
  /// history, observed arrival rates, engine backlog depths, live
  /// batch-mix statistics), and the configured FleetController decides.
  /// kReallocate re-splits the global budget on the observed demand,
  /// re-plans every model inside its new share and reconfigures the live
  /// engines (launch lag modeled); kResetMonitor drops a model's stale
  /// planning-time mix and re-plans it against the live stream's sliding
  /// window from then on.
  ///
  /// Chaos: a named `chaos` injector (or a programmatic `injector`) is
  /// armed on the run's schedule; its precomputed fault times become
  /// extra barriers where spot reclamations, instance kills and fabric
  /// degradation land (chaos/injector.h). Losses surface in the chaos
  /// log, the chaos telemetry fields, and the billed-spend accounting
  /// (effective vs on-demand cost under the injector's spot market).
  ///
  /// Errors: kInvalidArgument (non-positive duration/rate/window/period,
  /// unknown shift model, shift scale <= 0, shift time outside the
  /// horizon, bad controller or chaos knobs, both `chaos` and `injector`
  /// set), kNotFound (plan model not in the fleet, unknown controller or
  /// chaos name), kFailedPrecondition (empty monitor when a controller is
  /// configured).
  StatusOr<FleetServeResult> ServeAll(const FleetPlan& plan,
                                      FleetServeOptions options = {}) const;

 private:
  /// One ServeAll co-simulation, split into named parts (fleet.cc).
  class Run;

  Fleet(const cloud::Catalog& catalog, FleetOptions options, double floor);

  /// Index of `model` in names_, or kNotFound.
  StatusOr<std::size_t> Find(const std::string& model) const;

  /// The fleet index of every model of `plan`, in plan order; kNotFound.
  StatusOr<std::vector<std::size_t>> Resolve(const FleetPlan& plan) const;

  /// The mix model i observes / is measured under: its own trace when
  /// set, `fallback` otherwise.
  const workload::BatchDistribution& MixFor(std::size_t i,
                                            const workload::BatchDistribution&
                                                fallback) const;

  /// The budget split over `models` (fleet indices, in share order), each
  /// demand-weighted by its arrival_scale; no probe set.
  AllocationProblem Allocation(const std::vector<std::size_t>& models) const;

  const cloud::Catalog& catalog_;
  FleetOptions options_;
  /// Every model's share floor in $/hr: the cheapest base instance.
  double floor_;
  std::vector<std::string> names_;    ///< fleet-unique serving names
  std::vector<FleetModelOptions> model_options_;  ///< same order
  /// Per-model named-trace distributions; nullptr = caller-provided mix.
  std::vector<std::unique_ptr<workload::BatchDistribution>> mixes_;
  std::vector<Kairos> sessions_;      ///< one per model, same order
};

}  // namespace kairos::core

namespace kairos {
using core::Fleet;
}  // namespace kairos
