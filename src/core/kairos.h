// Public facade of the Kairos library. Downstream users (and this repo's
// examples and benches) interact mainly through this header:
//
//   * Kairos        — plan a heterogeneous configuration under a budget,
//                     measure its allowable throughput, and deploy it as a
//                     serving::Engine running the Kairos query distributor;
//   * Kairos::Create — the only way to build one (unknown model names come
//                     back as kNotFound, bad options as kInvalidArgument);
//   * MonitorFromMix — warm a QueryMonitor from a batch distribution, the
//                     paper's query-monitoring warmup.
//
// Planning runs the same functions as the KAIROS and KAIROS+ registry
// backends (core/planner.h), so the facade and the backends return the
// same Status for the same input.
//
// Strategies are built by name through registries that share one
// contract (common/registry.h): distribution schemes through
// kairos::PolicyRegistry (policy/registry.h: KAIROS, RIBBON, DRS, CLKWRK,
// PARTITIONED), planning strategies through kairos::PlannerRegistry
// (core/planner_backend.h: KAIROS, KAIROS+, HOMOGENEOUS, BRUTE-FORCE),
// fleet budget splitting through kairos::AllocatorRegistry
// (core/allocator.h: STATIC, MARGINAL), streaming query sources through
// kairos::QuerySourceRegistry (workload/query_source.h: TRACE, STREAM,
// POISSON, UNIFORM, GAUSSIAN, PRODUCTION), fleet control-plane strategies
// through kairos::ControllerRegistry (control/controller.h: PERIODIC,
// QOS, BACKLOG, DRIFT, SHED, FAILOVER, COMPOSITE), and fault injectors
// through kairos::ChaosRegistry (chaos/injector.h: SPOT_PREEMPTION,
// DOMAIN_OUTAGE, INSTANCE_DEATH, NET_DEGRADE, COMPOSITE). Multi-model
// serving under one budget goes through kairos::Fleet (core/fleet.h).
// Serving is the serving::Engine (serving/engine.h): Kairos::Deploy
// builds one, Fleet::ServeAll co-simulates one per model, and
// MeasureThroughput runs one per rate trial (serving/throughput_eval.h).
// Construction, planning, deployment and QueryMonitor::Snapshot() return
// a Status for bad caller input instead of throwing. MeasureThroughput
// alone keeps EvaluateConfig's std::invalid_argument for a config with no
// instance: its result feeds search::EvalFn, which returns a double.
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "core/planner.h"
#include "latency/model_zoo.h"
#include "serving/engine.h"
#include "serving/throughput_eval.h"
#include "workload/batch_dist.h"
#include "workload/monitor.h"

namespace kairos::core {

/// Facade options; defaults reproduce the paper's setup (Sec. 7).
struct KairosOptions {
  double budget_per_hour = 2.5;
  /// Multiplier on the model's Table-3 QoS target (Fig. 15b uses 1.2).
  double qos_scale = 1.0;
  /// Queries observed to warm the monitor before planning; also the
  /// monitor's sliding window. Must be positive.
  std::size_t monitor_warmup = 10000;
  std::uint64_t seed = 7;
};

/// End-to-end Kairos for one model on one catalog.
class Kairos {
 public:
  /// The only construction path. `catalog` must outlive the facade.
  /// kNotFound (listing the Table-3 names) for an unknown `model`, checked
  /// first; kInvalidArgument for bad options (qos_scale, budget_per_hour
  /// or monitor_warmup not positive).
  static StatusOr<Kairos> Create(const cloud::Catalog& catalog,
                                 const std::string& model,
                                 KairosOptions options = {});

  /// Observes workload (warms the monitor) from a batch distribution.
  void ObserveMix(const workload::BatchDistribution& mix);

  /// Drops stale workload statistics (e.g. after a regime change).
  void ResetMonitor() { monitor_.Reset(); }

  /// One-shot Kairos planning (no online evaluation): PlanOneShot on
  /// this session's context, so kInfeasible when the budget buys no base
  /// instance.
  StatusOr<Plan> PlanConfiguration() const;

  /// Kairos+ planning; `eval` measures real throughput of a config.
  /// PlanKairosPlus on this session's context: kFailedPrecondition
  /// without `eval`, kInvalidArgument for zero max_evals, kInfeasible
  /// when the budget buys no base instance.
  StatusOr<search::SearchResult> PlanWithEvaluations(
      const search::EvalFn& eval,
      const search::SearchOptions& options = {}) const;

  /// Builds an engine serving `config` with the Kairos distributor
  /// (default knobs) and a pretrained predictor. Pass a `shared_clock` to
  /// co-simulate several deployments on one event loop, as
  /// Fleet::ServeAll does; the clock must outlive the engine.
  /// kInvalidArgument for a config of the wrong arity or with no instance.
  StatusOr<std::unique_ptr<serving::Engine>> Deploy(
      const cloud::Config& config, serving::EngineOptions engine_options = {},
      sim::Simulator* shared_clock = nullptr) const;

  /// Allowable throughput of a config under the Kairos distributor:
  /// EvaluateConfig with a KairosPolicy per rate trial. Throws
  /// std::invalid_argument, as EvaluateConfig does, for a config of the
  /// wrong arity or with no instance.
  serving::EvalResult MeasureThroughput(
      const cloud::Config& config, const workload::BatchDistribution& mix,
      const serving::EvalOptions& eval_options) const;

  const workload::QueryMonitor& monitor() const { return monitor_; }
  const latency::LatencyModel& truth() const { return truth_; }
  double qos_ms() const { return qos_ms_; }
  const KairosOptions& options() const { return options_; }
  const cloud::Catalog& catalog() const { return catalog_; }

 private:
  /// Stores the pieces; Create() has checked `options`.
  Kairos(const cloud::Catalog& catalog, const latency::ModelSpec& spec,
         KairosOptions options);

  /// This session's planning problem.
  PlannerContext Context() const {
    return PlannerContext{&catalog_, &truth_, qos_ms_,
                          options_.budget_per_hour};
  }

  const cloud::Catalog& catalog_;
  latency::LatencyModel truth_;
  double qos_ms_;
  KairosOptions options_;
  workload::QueryMonitor monitor_;
};

/// Fills a fresh QueryMonitor with `count` draws from `mix`.
workload::QueryMonitor MonitorFromMix(const workload::BatchDistribution& mix,
                                      std::size_t count, std::uint64_t seed);

}  // namespace kairos::core
