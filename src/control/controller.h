// The fleet control plane (DESIGN.md Sec. 10): pluggable strategies that
// watch a running Fleet::ServeAll co-simulation and decide *when* the
// fleet should react — re-split the budget and re-plan (reallocation), or
// drop stale workload statistics (monitor reset). The paper's Kairos
// reacts to workload change by re-reading the query monitor and
// replanning; this subsystem generalizes the single hardwired trigger
// (a fixed reallocation timer) into controllers selected by name from a
// common/registry.h Registry, like every other strategy plane:
//
//   * PERIODIC  — fire a reallocation every period_s (the pre-control-
//                 plane Fleet::ServeAll behavior, reproduced bit for bit);
//   * QOS       — fire when a model's windowed p99 violates its QoS
//                 target for patience_windows consecutive windows;
//   * BACKLOG   — fire when a model's engine backlog exceeds backlog_s
//                 seconds of work at the observed arrival rate;
//   * DRIFT     — fire a monitor reset + reallocation when the live
//                 batch mix drifts from the planning-time snapshot;
//   * COMPOSITE — chain any of the above, deduplicating actions.
//
// Controllers never touch engines or allocators. At every barrier of the
// co-simulation the fleet hands them a read-only FleetTelemetry snapshot
// and applies whatever typed ControlActions come back. Determinism
// contract: Decide() must be a pure function of the telemetry and of
// state accumulated from *previous Decide() calls* — no clocks, RNG, or
// ambient state — so the action sequence is bit-identical for every
// serve_threads value (asserted by tests/control_test.cc).
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "common/time.h"
#include "serving/engine.h"  // WindowedMetrics

namespace kairos::control {

/// Named numeric tunables, booleans encoded as 0.0 / 1.0.
using kairos::KnobMap;

/// ControlAction::model value meaning "the whole fleet".
inline constexpr std::size_t kAllModels =
    std::numeric_limits<std::size_t>::max();

/// One served model's slice of the telemetry snapshot. Index order is the
/// served plan's model order (FleetServeResult::models).
struct ModelTelemetry {
  std::string model;             ///< fleet-unique serving name
  double arrival_scale = 1.0;    ///< configured demand prior
  double share_per_hour = 0.0;   ///< current budget share in $/hr
  double qos_ms = 0.0;           ///< effective QoS target
  std::size_t offered = 0;       ///< cumulative arrivals accepted so far
  std::size_t served = 0;        ///< cumulative completions so far
  /// Engine backlog depth: queries accepted but not yet completed
  /// (central queue + per-instance FIFOs + executing).
  std::size_t backlog = 0;
  /// Observed arrival rate since the last applied reallocation (or since
  /// the start of the run), queries per simulated second.
  double observed_rate_qps = 0.0;
  /// Mean batch size of the planning-time monitor snapshot — what the
  /// current configuration was planned against.
  double plan_mean_batch = 0.0;
  /// Mean batch size of the live arrival stream's sliding window.
  double live_mean_batch = 0.0;
  /// Samples behind live_mean_batch (drift tests should gate on this).
  std::size_t live_queries = 0;
  /// QueryMonitor::BatchMixDrift() of the live stream vs the planning
  /// reference: |live - plan| / plan, 0 while unknown.
  double drift = 0.0;
  /// Assignable (live, non-retiring) instances right now.
  std::size_t live_instances = 0;
  /// Instances the current target configuration asks for.
  std::size_t target_instances = 0;
  /// Launches in flight (scheduled but not booted yet).
  std::size_t pending_instances = 0;
  /// Cumulative instances lost to chaos (preemption hard kills + abrupt
  /// deaths) since the start of the run. 0 without a chaos injector.
  std::size_t instances_lost = 0;
  /// Cumulative spot reclamation notices issued since the start of the
  /// run. A notice precedes its hard kill by the market's notice window,
  /// so notices lead instances_lost — the failover controller's early
  /// signal.
  std::size_t preemption_notices = 0;
  /// Cumulative arrivals rejected at admission (bounded queue full).
  std::size_t rejected = 0;
  /// Cumulative queued queries dropped by deadline shedding.
  std::size_t shed = 0;
  /// The engine's active shed deadline in seconds; 0 = shedding off.
  /// The SHED controller reads this to know which regime it is in even
  /// across a controller swap.
  double shed_deadline_s = 0.0;
  /// Instantaneous spot discount multiplier on this model's billed spend
  /// at the barrier time (SpotMarket::DiscountAt); 1.0 when the model
  /// rents on demand. Curve-riding controllers read this to buy into
  /// price troughs.
  double spot_discount = 1.0;
  /// Closed WindowedMetrics history, shared grid across all models; the
  /// pointer stays valid for the duration of the Decide() call.
  const std::vector<serving::WindowedMetrics>* windows = nullptr;
};

/// Everything a controller may consult at one barrier.
struct FleetTelemetry {
  Time now = 0.0;                ///< barrier time, simulated seconds
  double duration_s = 0.0;       ///< run horizon
  double window_s = 0.0;         ///< window cadence
  double budget_per_hour = 0.0;  ///< global envelope
  /// True when this barrier just closed a WindowedMetrics window (the
  /// snapshot runs before the controller is consulted, so windows->back()
  /// is the freshly closed window).
  bool window_closed = false;
  std::size_t windows_closed = 0;  ///< closed windows so far
  /// Time of the last applied reallocation; 0 when none ran yet.
  Time last_reallocation = 0.0;
  std::vector<ModelTelemetry> models;  ///< served-plan order
};

/// What a controller can ask the fleet to do.
enum class ControlActionKind {
  /// Re-split the global budget on observed demand, re-plan every model
  /// inside its new share, and reconfigure the live engines (launch lag
  /// modeled). Fleet-wide; `model` is ignored.
  kReallocate,
  /// Drop model `model`'s stale planning-time workload statistics and
  /// plan subsequent reallocations against the live arrival stream's
  /// sliding window instead (the paper's ResetMonitor regime change).
  kResetMonitor,
  /// Re-spread model `model`'s current target configuration across fresh
  /// instances: re-issue the target so the engine schedules replacement
  /// launches for capacity lost (or noticed as lost) to chaos, without
  /// re-splitting the budget. Cheap and local — the fast first response
  /// to a reclamation notice, fired while the victim is still draining.
  kRespread,
  /// Re-plan model `model` from scratch inside its current budget share
  /// and reconfigure to the result. The heavy response to a preemption
  /// storm: the survivor set may want a different instance mix than the
  /// pre-storm plan. Skipped when a same-barrier kReallocate already
  /// replans the whole fleet.
  kFailover,
  /// Set model `model`'s deadline-shedding knob to ControlAction::
  /// deadline_s (seconds; 0 restores full admission). Graceful
  /// degradation: the SHED controller arms shedding *before* a model
  /// violates QoS and restores it once the backlog drains
  /// (DESIGN.md Sec. 12). Other admission knobs are untouched.
  kSetShed,
  /// Borrow ControlAction::amount_per_hour of budget for model `model`
  /// from the unaffected models' headroom (share above floor, taken
  /// proportionally) and re-plan both sides; amount_per_hour == 0 repays
  /// every outstanding loan of `model` instead. The fleet keeps a loan
  /// ledger so borrow == payback holds exactly (conservation invariant,
  /// DESIGN.md Sec. 11); a same-barrier kReallocate clears the ledger —
  /// a full re-split supersedes the loans.
  kBorrowBudget,
};

/// Human-readable action name ("REALLOCATE", "RESET_MONITOR", ...).
const char* ControlActionName(ControlActionKind kind);

/// One typed decision returned by FleetController::Decide.
struct ControlAction {
  ControlActionKind kind = ControlActionKind::kReallocate;
  /// Target model index (telemetry order) for kResetMonitor / kRespread /
  /// kFailover; kAllModels for fleet-wide actions.
  std::size_t model = kAllModels;
  /// kReallocate only: the measurement interval the demand rates should
  /// be computed over, in simulated seconds; 0 = time since the previous
  /// reallocation. PERIODIC pins this to its period so the refactored
  /// loop reproduces the fixed-timer arithmetic bit for bit.
  double interval_s = 0.0;
  /// kSetShed only: the deadline to install (seconds past arrival after
  /// which a queued query is dropped); 0 turns shedding off.
  double deadline_s = 0.0;
  /// kBorrowBudget only: the $/hr to borrow for `model`; 0 = repay every
  /// outstanding loan of `model`. The fleet caps the grant at the donors'
  /// available headroom.
  double amount_per_hour = 0.0;
  /// Why the controller fired — surfaced in FleetServeResult::control_log.
  std::string reason;
};

/// The shape of one ServeAll run, offered to controllers that want their
/// own barrier times merged into the window grid.
struct ControlSchedule {
  double duration_s = 0.0;
  double window_s = 0.0;
};

/// A fleet control strategy. Implementations must uphold the determinism
/// contract in the header comment; they may keep internal state across
/// Decide() calls (cooldowns, consecutive-violation counters).
class FleetController {
 public:
  virtual ~FleetController() = default;

  /// Canonical controller name ("PERIODIC", ...).
  virtual std::string Name() const = 0;

  /// Extra barrier times (strictly inside (0, duration)) this controller
  /// wants the fleet to stop at, beyond the window grid. The default —
  /// none — means the controller decides on window boundaries only.
  virtual std::vector<Time> DecisionTimes(const ControlSchedule&) const {
    return {};
  }

  /// True when Decide() consults the live batch-mix fields
  /// (live_mean_batch / live_queries / drift) or emits kResetMonitor.
  /// Only then does the fleet tap every arrival into per-shard live
  /// monitors — controllers that never read the mix (PERIODIC, QOS,
  /// BACKLOG) keep the arrival hot path at its pre-control-plane cost,
  /// and see those telemetry fields as zero.
  virtual bool NeedsLiveMix() const { return false; }

  /// Consulted at every barrier except the horizon (an action applied
  /// there could never serve a query), after the window snapshot.
  /// Returns the actions the fleet should apply; monitor resets are
  /// applied before a same-barrier reallocation regardless of order.
  virtual std::vector<ControlAction> Decide(const FleetTelemetry&) = 0;
};

/// Process-wide name -> controller table (common/registry.h): static
/// registrars populate it, lookup is case-insensitive, and a builder
/// receives the complete knob map. kInvalidArgument for an out-of-range
/// knob value.
class ControllerRegistry : public Registry<FleetController> {
 public:
  static ControllerRegistry& Global() {
    static ControllerRegistry* registry = new ControllerRegistry();
    return *registry;
  }

 private:
  ControllerRegistry() : Registry("controller") {}
};

using ControllerInfo = RegistryInfo;
using ControllerRegistrar = Registrar<ControllerRegistry>;

}  // namespace kairos::control

namespace kairos {
using control::ControllerRegistry;
using control::FleetController;
}  // namespace kairos
