// Direct construction of the built-in fleet controllers. Most callers
// should build by name through ControllerRegistry (control/controller.h);
// these factories exist for code that composes controllers
// programmatically — COMPOSITE chaining a custom sub-controller set, or
// tests pinning non-default thresholds without knob plumbing.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "control/controller.h"

namespace kairos::control {

/// "PERIODIC": one reallocation every `period_s` simulated seconds
/// (0 = never). Reproduces the pre-control-plane Fleet::ServeAll
/// fixed-timer behavior bit for bit, including computing the observed
/// demand rates over exactly `period_s`.
std::unique_ptr<FleetController> MakePeriodicController(double period_s);

/// "QOS" thresholds.
struct QosControllerOptions {
  /// A window is a violation when its p99 exceeds p99_scale * qos_ms.
  double p99_scale = 1.0;
  /// Consecutive violation windows (per model) before firing.
  std::size_t patience_windows = 1;
  /// Closed windows to sit out after a fire before firing again.
  std::size_t cooldown_windows = 1;
  /// Windows with fewer completions than this never count as violations.
  /// The default (1) only skips completion-free windows; raise it (e.g.
  /// to 2+) when a lone straggler in an otherwise idle window should not
  /// count as a QoS signal.
  std::size_t min_served = 1;
};
std::unique_ptr<FleetController> MakeQosController(
    QosControllerOptions options = {});

/// "BACKLOG" thresholds.
struct BacklogControllerOptions {
  /// Fire when a model's backlog exceeds this many seconds of work at
  /// the window's observed arrival rate.
  double backlog_s = 2.0;
  /// Absolute backlog floor below which the controller never fires.
  std::size_t min_backlog = 8;
  /// Closed windows to sit out after a fire before firing again.
  std::size_t cooldown_windows = 1;
};
std::unique_ptr<FleetController> MakeBacklogController(
    BacklogControllerOptions options = {});

/// "DRIFT" thresholds.
struct DriftControllerOptions {
  /// Fire when |live mean batch - planning mean batch| / planning mean
  /// exceeds this fraction.
  double drift_fraction = 0.25;
  /// Live-stream samples required before drift is trusted.
  std::size_t min_queries = 200;
  /// Closed windows to sit out after a fire before firing again.
  std::size_t cooldown_windows = 2;
};
std::unique_ptr<FleetController> MakeDriftController(
    DriftControllerOptions options = {});

/// "FAILOVER" thresholds. The all-default struct reproduces the PR 6
/// controller decision-for-decision: no hysteresis, no borrowing.
struct FailoverControllerOptions {
  /// Chaos losses (hard kills + fresh notices) accumulated across the
  /// fleet before escalating from a per-model kRespread to a kFailover
  /// replan of the affected model. 1 = always replan.
  std::size_t storm_losses = 3;
  /// Notice-flap hysteresis: closed windows a model sits out after a
  /// notice-only kRespread before another notice-only respread may fire
  /// (fresh hard losses always bypass the cooldown). 0 = off — every
  /// notice respreads, the PR 6 behavior.
  std::size_t cooldown_windows = 0;
  /// Storm budget borrowing: on a kFailover escalation the model also
  /// asks to borrow this fraction of its current share from the
  /// unaffected models' headroom (kBorrowBudget), repaid once the storm
  /// passes. 0 = never borrow.
  double borrow_fraction = 0.0;
  /// Consecutive quiet closed windows (no new losses or notices) before
  /// a borrowing model repays its loans.
  std::size_t recovery_windows = 2;
};
std::unique_ptr<FleetController> MakeFailoverController(
    FailoverControllerOptions options = {});

/// "SHED" thresholds (graceful degradation, DESIGN.md Sec. 12).
struct ShedControllerOptions {
  /// Arm shedding when a window's p99 exceeds p99_scale * qos_ms — below
  /// 1.0 so the model degrades *before* it violates QoS.
  double p99_scale = 0.9;
  /// Installed shed deadline = deadline_scale * the model's QoS target
  /// (in seconds): queued queries that cannot finish within it are
  /// dropped instead of poisoning the tail.
  double deadline_scale = 1.5;
  /// Also arm when the backlog exceeds this many seconds of work at the
  /// window's observed arrival rate (pressure shows in the queue before
  /// it shows in the served tail).
  double backlog_s = 1.0;
  /// Consecutive pressured windows (per model) before arming.
  std::size_t patience_windows = 1;
  /// Consecutive healthy windows (p99 back under the bound, backlog
  /// drained) before restoring full admission.
  std::size_t restore_windows = 2;
  /// Windows with fewer completions than this never count as pressured.
  std::size_t min_served = 1;
};
std::unique_ptr<FleetController> MakeShedController(
    ShedControllerOptions options = {});

/// "COMPOSITE": consults `children` in order and concatenates their
/// actions, keeping at most one kReallocate per barrier and, per model,
/// at most one kResetMonitor, one chaos recovery (kRespread or
/// kFailover), one kSetShed and one kBorrowBudget. Where two children
/// emit the same kind for a model, the earlier child's action stands.
/// The registry-built COMPOSITE chains QOS + BACKLOG + DRIFT, plus
/// FAILOVER and SHED when toggled on and PERIODIC when period_s > 0;
/// this factory chains an arbitrary set.
std::unique_ptr<FleetController> MakeCompositeController(
    std::vector<std::unique_ptr<FleetController>> children);

}  // namespace kairos::control
