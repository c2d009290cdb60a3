// The serving engine (DESIGN.md Sec. 8), the one way to run a simulated
// deployment. An Engine owns a running deployment whose lifetime the
// caller controls:
//
//   * queries arrive continuously — programmatic Submit() or attached
//     QuerySources pulled lazily, one emission ahead;
//   * time advances on demand — AdvanceTo(t) / Drain();
//   * metrics are read incrementally — TakeWindow() snapshots;
//   * the deployment mutates mid-run — SetArrivalScale() stretches
//     source gaps, SwapPolicy() replaces the distribution scheme, and
//     Reconfigure() moves to a new instance configuration with a modeled
//     launch lag (new instances come online late; removed instances
//     drain their committed work, then retire).
//
// State machine: SERVING --Drain()--> DRAINING --backlog empty--> DRAINED
// (an early abort also lands in DRAINED). Mutations and submissions are
// only accepted while SERVING.
//
// Event flow:
//   arrival  -> admission -> enqueue -> policy round -> dispatch/commit
//   complete -> record latency, observe predictor -> policy round
//
// Several engines may shard one sim::Simulator (Create's `shared_clock`
// argument): Fleet::ServeAll co-simulates every model of a fleet on
// one event loop this way. Batch serving is Submit() of a whole trace,
// then Drain(), then Totals(): each rate trial of EvaluateConfig
// (serving/throughput_eval.h) runs exactly that on a fresh engine.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ring_deque.h"
#include "common/rng.h"
#include "common/status.h"
#include "policy/registry.h"
#include "serving/latency_predictor.h"
#include "serving/system.h"
#include "sim/simulator.h"
#include "workload/query_source.h"

namespace kairos::workload {
class QueryMonitor;  // workload/monitor.h — the live-mix tap target
}  // namespace kairos::workload

namespace kairos::rpc {
class NetworkModel;  // rpc/netem.h — the chaos-installable fabric
}  // namespace kairos::rpc

namespace kairos::telemetry {
struct EngineInstruments;  // telemetry/telemetry.h — metric/span handles
}  // namespace kairos::telemetry

namespace kairos::serving {

/// Engine lifecycle states (DESIGN.md Sec. 8).
enum class EngineState {
  kServing,   ///< accepting submissions and mutations
  kDraining,  ///< intake closed; finishing the backlog
  kDrained,   ///< backlog empty (or run aborted); terminal
};

/// Human-readable state name ("SERVING", ...).
const char* EngineStateName(EngineState state);

/// Service metrics aggregated over one observation window — the slice of
/// simulated time between two TakeWindow() calls.
struct WindowedMetrics {
  Time start = 0.0;            ///< window opening time (seconds)
  Time end = 0.0;              ///< window closing time (seconds)
  std::size_t offered = 0;     ///< arrivals inside the window
  std::size_t served = 0;      ///< completions inside the window
  std::size_t violations = 0;  ///< completions with latency > QoS
  /// Arrivals turned away by the bounded admission queue this window.
  /// Rejected arrivals still count in `offered` (they did arrive).
  std::size_t rejected = 0;
  /// Queued queries dropped by deadline shedding this window.
  std::size_t shed = 0;
  double p99_ms = 0.0;         ///< p99 latency of the window's completions
  double mean_ms = 0.0;        ///< mean latency of the window's completions
  double offered_qps = 0.0;    ///< offered / (end - start)
  double qps = 0.0;            ///< served / (end - start)
  /// Mean batch size of the window's *arrivals* (0 when none): the batch-
  /// mix signal drift-aware controllers compare against the planning-time
  /// monitor snapshot.
  double mean_batch = 0.0;
  /// rejected / offered and shed / offered (0 when the window had no
  /// arrivals) — reported next to p99 so benches can gate on "QoS met at
  /// X% shed" honestly (DESIGN.md Sec. 12).
  double reject_rate = 0.0;
  double shed_rate = 0.0;
  /// Central-queue depth sampled after each arrival's admission decision:
  /// the window's max and arrival-weighted mean (0 when no arrivals).
  /// This is the backlog-pressure signal the SHED controller and the
  /// telemetry queue-depth gauge read, instead of re-deriving it from
  /// Backlog() (which also counts committed and executing queries).
  std::size_t queue_depth_max = 0;
  double queue_depth_mean = 0.0;
};

/// Production admission-control and load-shedding knobs (DESIGN.md
/// Sec. 12). Both default to 0 = disabled, and a fully-disabled engine is
/// bit-identical to a pre-admission build. Create() and SetAdmission()
/// refuse a negative or NaN deadline_s with kInvalidArgument.
struct AdmissionOptions {
  /// Reject arrivals while the central queue already holds this many
  /// queries (0 = unbounded). Rejected queries count as offered and as
  /// rejected, are reported to the monitor tap, and never enter the queue.
  std::size_t max_queue = 0;

  /// Shed queued queries that can no longer finish within deadline_s of
  /// their arrival even if started immediately on the fastest assignable
  /// type (0 = off). Shedding walks the FIFO head at each policy round
  /// and stops at the first feasible query, so it is deterministic and
  /// never reorders survivors. Committed (per-instance FIFO) queries are
  /// never shed.
  double deadline_s = 0.0;
};

/// Streaming-engine knobs.
struct EngineOptions {
  /// Abort / matcher-window / record-keeping knobs shared with batch runs.
  RunOptions run;
  /// Simulated seconds between Reconfigure() and new instances serving
  /// (cloud VM boot + model load). Teardown needs no lag: retiring
  /// instances stop taking work immediately and drain what they hold.
  double launch_lag_s = 0.0;
  /// Seed of the engine's RNG for QuerySource draws.
  std::uint64_t seed = 42;
  /// Admission/shedding behavior; all-zero (the default) disables it.
  AdmissionOptions admission;
  /// Number of failure domains (racks / AZs) instances are spread over at
  /// deploy time, round-robin in append order. Pure chaos metadata
  /// (DESIGN.md Sec. 11): 1 (the default, and the effective value for 0)
  /// puts everything in one domain and changes nothing else.
  std::size_t failure_domains = 1;
};

/// One online serving deployment, driven explicitly through simulated time.
class Engine {
 public:
  /// The only construction path. The engine owns the policy.
  /// kInvalidArgument on a bad spec (null catalog/truth, arity mismatch,
  /// empty config, null policy) or bad admission knobs. When
  /// `shared_clock` is non-null the engine schedules onto it (fleet
  /// co-simulation) and the caller drives that clock; the clock must
  /// outlive the engine.
  static StatusOr<std::unique_ptr<Engine>> Create(
      SystemSpec spec, std::unique_ptr<policy::Policy> policy,
      PredictorOptions predictor_options = {}, EngineOptions options = {},
      sim::Simulator* shared_clock = nullptr);

  // Scheduled events capture `this`; the engine is pinned in memory.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time of the engine's clock.
  Time Now() const { return sim_->Now(); }

  EngineState state() const { return state_; }

  /// Enqueues one query for arrival at q.arrival (>= Now; equal-time
  /// ties fire in submission order). kFailedPrecondition once draining,
  /// kInvalidArgument for an arrival in the past.
  Status Submit(workload::Query q);

  /// Attaches a pull-based source: its first emission is scheduled now,
  /// each fired emission schedules the next (gaps divided by the current
  /// arrival scale). The source must outlive the engine (or its Drain()).
  /// Emitted queries get engine-assigned ids and join the `offered`
  /// ledger when they *arrive* (a scheduled-ahead emission that never
  /// fires is never counted); Submit()ted queries count at submission,
  /// preserving batch semantics. kFailedPrecondition once draining.
  Status SubmitSource(workload::QuerySource& source);

  /// Fires every event with time <= t, then moves the clock exactly to t
  /// (even when idle). Returns the number of events fired. On an engine
  /// sharing a clock this advances the *shared* loop — with
  /// Fleet::ServeAll, let the fleet drive instead.
  std::size_t AdvanceTo(Time t);

  /// Closes intake (detaches sources, rejects further Submits) and runs
  /// events until every query this engine accepted has completed.
  /// Returns the number of events fired. Unbounded sources are safe to
  /// drain: they are simply cut off. On a shared clock this advances the
  /// shared loop (co-simulated peers keep serving) exactly until this
  /// engine's own backlog is empty, then stops.
  std::size_t Drain();

  /// Stretches the gaps of every attached source by 1/scale from the
  /// next emission onward (2.0 = twice the arrival rate). Scale must be
  /// positive. Programmatic Submit() timestamps are not rescaled.
  Status SetArrivalScale(double scale);

  double arrival_scale() const { return arrival_scale_; }

  /// Replaces the distribution policy mid-run with a registry-built one
  /// (kNotFound for an unknown name, listing the alternatives). The new
  /// policy starts from Reset() state; queued queries are redistributed
  /// under it on the next round.
  Status SwapPolicy(const std::string& name,
                    const policy::KnobMap& knobs = {});

  /// Moves the deployment to `config` (same catalog arity, >= 1 instance
  /// in total). Per instance type, shrinking cancels launches still
  /// pending from an earlier reconfigure first, then marks the newest
  /// live instances retiring (idle ones retire on the spot; busy ones
  /// drain first); growth schedules launches that come online after
  /// EngineOptions::launch_lag_s. Launches the new target still wants
  /// keep their original schedule — re-issuing an unchanged target is a
  /// no-op, never a lag reset.
  Status Reconfigure(const cloud::Config& config);

  /// Metrics since the previous TakeWindow() (or since construction),
  /// closing the window at Now() and opening a fresh one. Deterministic:
  /// same seed + same submission/advance schedule => identical windows,
  /// regardless of how many AdvanceTo steps realized the schedule.
  WindowedMetrics TakeWindow();

  /// Cumulative results since construction, in batch RunResult form
  /// (p99/mean/throughput computed over every completion so far). The
  /// zero-offered edge cases report throughput_qps == 0 and never NaN.
  RunResult Totals() const;

  /// Queries in the offered ledger so far — arrived source emissions
  /// plus everything Submit()ted. Cheap, unlike Totals() (which copies
  /// per-completion vectors); periodic pollers should read this.
  std::size_t Offered() const { return totals_.offered; }

  /// Completions so far. Cheap, like Offered().
  std::size_t Served() const { return totals_.served; }

  /// Arrivals turned away at admission so far. Cheap, like Offered().
  std::size_t Rejected() const { return totals_.rejected; }

  /// Queued queries dropped by deadline shedding so far. Cheap.
  std::size_t Shed() const { return totals_.shed; }

  /// Backlog depth: queries accepted but not yet completed (rejected and
  /// shed queries left the system and do not count). For source-fed
  /// engines (emissions join the ledger on arrival) this is exactly the
  /// in-system population — central queue + per-instance FIFOs +
  /// executing — which is what backlog-autoscaling controllers read at
  /// every barrier. Programmatic Submit()s count from *submission*
  /// (batch semantics), so a trace scheduled ahead inflates this until
  /// its arrivals fire.
  std::size_t Backlog() const {
    return totals_.offered - totals_.served - totals_.rejected -
           totals_.shed;
  }

  /// Replaces the admission/shedding knobs mid-run (the SHED controller
  /// drives this at fleet barriers). A newly set or tightened deadline is
  /// applied to the queue at the next policy round. kInvalidArgument for
  /// the knobs Create() refuses; kFailedPrecondition unless SERVING.
  Status SetAdmission(const AdmissionOptions& admission);

  const AdmissionOptions& admission() const { return options_.admission; }

  /// Attaches a sliding-window monitor fed one Observe() per arrival
  /// (batch sizes of the *live* stream, in arrival order). The monitor
  /// must outlive the engine; nullptr detaches. Used by the fleet
  /// control plane to compare the live batch mix against the planning-
  /// time snapshot and to re-plan after a monitor reset.
  void SetMonitorTap(workload::QueryMonitor* monitor) {
    monitor_tap_ = monitor;
  }

  /// Attaches telemetry instruments (telemetry/telemetry.h): counters on
  /// the arrival/shed/completion paths, a queue-depth gauge, and spans
  /// around AdvanceTo/Drain. The instruments (and the Telemetry backing
  /// them) must outlive the engine; nullptr (the default) detaches and
  /// restores the exact uninstrumented event stream — telemetry is a
  /// pure observer and never perturbs results (DESIGN.md Sec. 13).
  void SetTelemetry(const telemetry::EngineInstruments* instruments) {
    telemetry_ = instruments;
  }

  /// The configuration the engine is moving toward (pending launches
  /// included); equals the live configuration once they are online.
  const cloud::Config& target_config() const { return target_config_; }

  /// Live instances: launched, not retired (retiring-but-draining count).
  std::size_t ActiveInstances() const;

  /// Assignable instances: live and not retiring (the set policies see).
  std::size_t AssignableInstances() const;

  /// Launches scheduled but not yet online.
  std::size_t PendingInstances() const;

  // --- Chaos hooks (DESIGN.md Sec. 11). Fleet::ServeAll drives these at
  // barriers on the driving thread; kill events scheduled here fire on
  // this engine's own clock, inside its shard advance. A zero-chaos run
  // never calls them, and its event stream, RNG draws and results stay
  // bit-identical to pre-chaos builds (tests/chaos_test.cc).

  /// One chaos-induced capacity loss, in the order it happened.
  struct InstanceFault {
    Time time = 0.0;
    bool preemption = false;   ///< spot reclamation (vs abrupt death)
    std::size_t requeued = 0;  ///< queries pushed back to the central queue
  };

  /// Issues spot reclamation notices to the `count` newest assignable
  /// instances: each stops taking new work immediately (retiring) and is
  /// hard-killed `notice_s` seconds later unless it drained first. The
  /// last assignable instance is spared so a model never self-destructs
  /// to zero capacity. Returns the notices actually issued; no-op (0)
  /// unless SERVING.
  std::size_t PreemptInstances(std::size_t count, double notice_s);

  /// Hard-kills the `count` newest assignable instances right now: the
  /// executing query's completion is cancelled and it returns — with its
  /// FIFO — to the *front* of the central queue, original arrival stamps
  /// intact (the lost work is the preemption damage the latency tail
  /// shows). The last assignable instance is spared. Returns the kills
  /// applied; no-op (0) unless SERVING.
  std::size_t KillInstances(std::size_t count);

  /// Failure domains configured for this deployment (>= 1).
  std::size_t NumDomains() const;

  /// Correlated reclamation: issues spot notices to *every* assignable
  /// instance labelled `domain` (newest first), each retired immediately
  /// and hard-killed `notice_s` seconds later unless drained. When the
  /// domain holds every assignable instance, the oldest one is spared so
  /// the model never self-destructs to zero capacity. Returns the notices
  /// issued; no-op (0) unless SERVING or for an out-of-range domain.
  std::size_t PreemptDomain(std::size_t domain, double notice_s);

  /// Correlated abrupt loss: hard-kills every assignable instance in
  /// `domain` right now, sparing the oldest survivor as PreemptDomain
  /// does. Returns the kills applied; no-op (0) unless SERVING.
  std::size_t KillDomain(std::size_t domain);

  /// Installs `net` as the dispatcher<->instance fabric: every execution
  /// pays two sampled one-way hops (dispatch + reply) on top of compute.
  /// nullptr restores the pristine zero-delay fabric. Hop draws come from
  /// a dedicated RNG, so arrival and policy streams are untouched. `net`
  /// must outlive the engine or the next SetNetwork call.
  void SetNetwork(const rpc::NetworkModel* net) { network_ = net; }

  /// Chaos kill ledger in time order (reclamations and deaths; notices
  /// are counted separately). Fleet::ServeAll drains this at barriers.
  const std::vector<InstanceFault>& Faults() const { return faults_; }

  /// Faults().size(), for cheap telemetry polling.
  std::size_t InstancesLost() const { return faults_.size(); }

  /// Cumulative spot reclamation notices issued via PreemptInstances.
  std::size_t PreemptionNotices() const { return preemption_notices_; }

  /// Billed instance-seconds per catalog type up to Now(): every
  /// non-retired instance plus every pending launch bills — launching
  /// instances pay while they boot, exactly PlanReconfiguration's
  /// doctrine. Passive accounting: reading it never perturbs the run.
  std::vector<double> BilledSecondsPerType() const;

  const policy::Policy& GetPolicy() const { return *policy_; }

 private:
  struct SourceState {
    workload::QuerySource* source = nullptr;
    sim::EventId pending = 0;   ///< the scheduled next-emission event
    bool open = false;          ///< still pulling
  };

  /// Stores the pieces unchecked; Create() finishes with Init(), which
  /// holds the one validation list.
  Engine(SystemSpec spec, std::unique_ptr<policy::Policy> policy,
         PredictorOptions predictor_options, EngineOptions options,
         sim::Simulator* shared_clock);

  /// Validates the spec and lays out the deployment; kInvalidArgument on
  /// a bad spec, before anything is built.
  Status Init();

  /// Schedules source slot `slot`'s next emission, if any.
  void PullSource(std::size_t slot);

  void OnArrival(const workload::Query& q);

  /// Records the central-queue depth after an arrival's admission
  /// decision into the window stats and the telemetry gauge.
  void SampleQueueDepth();

  /// True when AdmissionOptions says this arrival must be turned away.
  bool AdmissionRejects() const;

  /// Predicted service seconds of `batch` on the fastest assignable
  /// type right now; 0 when nothing is assignable.
  double MinServiceSeconds(int batch) const;

  /// Drops doomed queries from the FIFO head (see
  /// AdmissionOptions::deadline_s); called at the top of every round.
  void ShedExpired();

  void RunRound();
  void StartIfIdle(std::size_t instance_idx);
  void BeginExecution(std::size_t instance_idx, const workload::Query& q);
  void OnCompletion(std::size_t instance_idx, workload::Query q, Time start);

  /// Views of the assignable instances; fills `view_to_instance_` with
  /// the matching instances_ indices. Returns a reference to reused
  /// per-round scratch, invalidated by the next call.
  const std::vector<InstanceView>& SnapshotInstances();

  /// Immediate kill of one instance: cancel + requeue + retire + log.
  /// No-op when the instance already retired (a preemption notice whose
  /// target drained in time).
  void HardKill(std::size_t instance_idx, bool preemption);

  /// Indices of the newest assignable instances, newest first, capped so
  /// at least one assignable instance survives.
  std::vector<std::size_t> NewestAssignable(std::size_t count) const;

  /// Assignable instances labelled `domain`, newest first, minus the
  /// fleet-wide oldest assignable instance when the domain would
  /// otherwise zero the model (the correlated-kill survivor rule).
  std::vector<std::size_t> DomainAssignable(std::size_t domain) const;

  /// Folds billed instance-seconds since the last census into
  /// billed_seconds_; called before every mutation of the billed set.
  void AccrueBilling();

  /// Appends one live instance of `type`.
  void AddInstance(cloud::TypeId type);

  /// Non-retired launched instances of `type`.
  std::size_t LiveCount(cloud::TypeId type) const;

  SystemSpec spec_;
  std::unique_ptr<policy::Policy> policy_;
  PredictorOptions predictor_options_;
  EngineOptions options_;

  sim::Simulator owned_sim_;
  sim::Simulator* sim_ = nullptr;  ///< owned_sim_ or the shared clock

  std::unique_ptr<LatencyPredictor> predictor_;
  std::vector<Instance> instances_;
  std::vector<std::size_t> view_to_instance_;  ///< scratch of SnapshotInstances
  RingDeque<workload::Query> waiting_;
  // Per-round scratch reused across rounds: at a sustained 10M-query
  // stream, RunRound runs millions of times and these high-water once.
  std::vector<InstanceView> round_views_;
  std::vector<workload::Query> round_prefix_;
  std::vector<policy::Assignment> round_assignments_;
  std::vector<char> round_q_used_, round_i_used_, round_remove_;
  std::vector<workload::Query> orphan_scratch_;
  std::vector<SourceState> sources_;
  /// Scheduled-but-not-yet-online instances; entries whose event already
  /// fired stay until the next reconfigure sweeps them (Cancel no-ops).
  struct PendingLaunch {
    sim::EventId id = 0;
    cloud::TypeId type = 0;
  };
  std::vector<PendingLaunch> pending_launches_;
  std::vector<std::size_t> pending_by_type_;  ///< live pending count per type
  cloud::Config target_config_;

  EngineState state_ = EngineState::kServing;
  workload::QueryMonitor* monitor_tap_ = nullptr;  ///< live-mix observer
  const telemetry::EngineInstruments* telemetry_ = nullptr;  ///< pure observer
  const rpc::NetworkModel* network_ = nullptr;     ///< chaos fabric; null = pristine
  Rng net_rng_;                        ///< hop draws only, never shared
  std::size_t domain_counter_ = 0;     ///< round-robin deploy placement
  std::vector<InstanceFault> faults_;  ///< chaos kills, time order
  std::size_t preemption_notices_ = 0;
  std::vector<double> billed_seconds_;  ///< per type, up to census_time_
  Time census_time_ = 0.0;
  Rng rng_;
  double arrival_scale_ = 1.0;
  workload::QueryId next_source_id_ = 1u << 20;  ///< clear of trace ids
  double qos_sec_ = 0.0;
  bool abort_requested_ = false;

  // Cumulative counters (RunResult shape) plus the open window.
  RunResult totals_;
  double latency_sum_ms_ = 0.0;  ///< running sum; exact mean without the vector
  Time window_start_ = 0.0;
  std::size_t window_offered_ = 0;
  std::size_t window_served_ = 0;
  std::size_t window_violations_ = 0;
  std::size_t window_rejected_ = 0;
  std::size_t window_shed_ = 0;
  double window_batch_sum_ = 0.0;  ///< sum of arrival batch sizes
  std::size_t window_queue_max_ = 0;   ///< max queue depth seen at arrivals
  double window_queue_sum_ = 0.0;      ///< sum of depths (mean = /offered)
  std::vector<double> window_latencies_ms_;
};

}  // namespace kairos::serving
