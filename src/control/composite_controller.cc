// "COMPOSITE": chains several controllers into one closed loop. Children
// are consulted in order at every barrier; their actions concatenate with
// five dedup rules — at most one kReallocate per barrier (the first
// child's reason wins; one re-split already replans every model), and per
// model at most one kResetMonitor, one chaos recovery (kRespread /
// kFailover), one kSetShed and one kBorrowBudget per barrier, the earlier
// child's action standing. The registry build chains QOS + BACKLOG +
// DRIFT (+ FAILOVER / SHED when toggled on, + PERIODIC as a slow safety
// net when period_s is set), each child with its default thresholds;
// custom chains go through MakeCompositeController.
#include <string>
#include <utility>

#include "control/controllers.h"

namespace kairos::control {
namespace {

class CompositeController final : public FleetController {
 public:
  explicit CompositeController(
      std::vector<std::unique_ptr<FleetController>> children)
      : children_(std::move(children)) {}

  std::string Name() const override { return "COMPOSITE"; }

  bool NeedsLiveMix() const override {
    for (const auto& child : children_) {
      if (child->NeedsLiveMix()) return true;
    }
    return false;
  }

  std::vector<Time> DecisionTimes(const ControlSchedule& schedule) const
      override {
    // Duplicates are fine: the fleet merges these into one barrier map.
    std::vector<Time> times;
    for (const auto& child : children_) {
      const std::vector<Time> child_times = child->DecisionTimes(schedule);
      times.insert(times.end(), child_times.begin(), child_times.end());
    }
    return times;
  }

  std::vector<ControlAction> Decide(const FleetTelemetry& telemetry) override {
    std::vector<ControlAction> actions;
    bool reallocated = false;
    std::vector<bool> reset(telemetry.models.size(), false);
    std::vector<bool> recovered(telemetry.models.size(), false);
    std::vector<bool> shed_set(telemetry.models.size(), false);
    std::vector<bool> borrowed(telemetry.models.size(), false);
    for (const auto& child : children_) {
      for (ControlAction& action : child->Decide(telemetry)) {
        if (action.kind == ControlActionKind::kReallocate) {
          if (reallocated) continue;
          reallocated = true;
          action.reason = child->Name() + ": " + action.reason;
        } else if (action.kind == ControlActionKind::kResetMonitor) {
          // Dedup only in-range targets; an out-of-range index passes
          // through so the fleet rejects it loudly (the child's bug must
          // not become invisible just because it is chained).
          if (action.model < reset.size()) {
            if (reset[action.model]) continue;
            reset[action.model] = true;
          }
          action.reason = child->Name() + ": " + action.reason;
        } else if (action.kind == ControlActionKind::kRespread ||
                   action.kind == ControlActionKind::kFailover) {
          // One recovery per model per barrier; children are consulted in
          // order, so an earlier child's choice (respread vs failover)
          // stands for this barrier.
          if (action.model < recovered.size()) {
            if (recovered[action.model]) continue;
            recovered[action.model] = true;
          }
          action.reason = child->Name() + ": " + action.reason;
        } else if (action.kind == ControlActionKind::kSetShed) {
          // One shed-knob change per model per barrier; the earlier
          // child's deadline stands.
          if (action.model < shed_set.size()) {
            if (shed_set[action.model]) continue;
            shed_set[action.model] = true;
          }
          action.reason = child->Name() + ": " + action.reason;
        } else if (action.kind == ControlActionKind::kBorrowBudget) {
          // One loan-ledger change per model per barrier; the earlier
          // child's borrow (or payback) stands.
          if (action.model < borrowed.size()) {
            if (borrowed[action.model]) continue;
            borrowed[action.model] = true;
          }
          action.reason = child->Name() + ": " + action.reason;
        }
        actions.push_back(std::move(action));
      }
    }
    return actions;
  }

 private:
  std::vector<std::unique_ptr<FleetController>> children_;
};

const ControllerRegistrar kComposite(
    ControllerInfo{"COMPOSITE",
                   "chain QOS + BACKLOG + DRIFT (+ FAILOVER / SHED when "
                   "their toggles are set; period_s > 0 adds a PERIODIC "
                   "safety net; p99_scale/backlog_s/drift_fraction/"
                   "storm_losses/borrow_fraction/cooldown_windows forward "
                   "to the children), deduplicating actions per barrier",
                   {{"qos", 1.0},
                    {"backlog", 1.0},
                    {"drift", 1.0},
                    {"failover", 0.0},
                    {"shed", 0.0},
                    {"period_s", 0.0},
                    {"p99_scale", 1.0},
                    {"backlog_s", 2.0},
                    {"drift_fraction", 0.25},
                    {"storm_losses", 3.0},
                    {"borrow_fraction", 0.0},
                    {"cooldown_windows", 0.0}}},
    [](const KnobMap& knobs) -> StatusOr<std::unique_ptr<FleetController>> {
      const double period = knobs.at("period_s");
      if (period < 0.0) {
        return Status::InvalidArgument(
            "controller COMPOSITE: period_s must be >= 0");
      }
      if (knobs.at("p99_scale") <= 0.0 || knobs.at("backlog_s") <= 0.0 ||
          knobs.at("drift_fraction") <= 0.0) {
        return Status::InvalidArgument(
            "controller COMPOSITE: p99_scale, backlog_s and "
            "drift_fraction must be positive");
      }
      // The failover knobs are validated whether or not the child is
      // toggled on — a malformed knob never hides behind a toggle.
      if (knobs.at("storm_losses") < 1.0) {
        return Status::InvalidArgument(
            "controller COMPOSITE: storm_losses must be >= 1");
      }
      if (knobs.at("borrow_fraction") < 0.0 ||
          knobs.at("borrow_fraction") >= 1.0) {
        return Status::InvalidArgument(
            "controller COMPOSITE: borrow_fraction must be in [0, 1)");
      }
      if (knobs.at("cooldown_windows") < 0.0) {
        return Status::InvalidArgument(
            "controller COMPOSITE: cooldown_windows must be >= 0");
      }
      std::vector<std::unique_ptr<FleetController>> children;
      if (knobs.at("qos") != 0.0) {
        QosControllerOptions qos;
        qos.p99_scale = knobs.at("p99_scale");
        children.push_back(MakeQosController(qos));
      }
      if (knobs.at("backlog") != 0.0) {
        BacklogControllerOptions backlog;
        backlog.backlog_s = knobs.at("backlog_s");
        children.push_back(MakeBacklogController(backlog));
      }
      if (knobs.at("drift") != 0.0) {
        DriftControllerOptions drift;
        drift.drift_fraction = knobs.at("drift_fraction");
        children.push_back(MakeDriftController(drift));
      }
      if (knobs.at("failover") != 0.0) {
        FailoverControllerOptions failover;
        failover.storm_losses =
            static_cast<std::size_t>(knobs.at("storm_losses"));
        failover.borrow_fraction = knobs.at("borrow_fraction");
        failover.cooldown_windows =
            static_cast<std::size_t>(knobs.at("cooldown_windows"));
        children.push_back(MakeFailoverController(failover));
      }
      if (knobs.at("shed") != 0.0) {
        // Default thresholds; custom shed tuning goes through
        // MakeCompositeController with a hand-built ShedController.
        children.push_back(MakeShedController(ShedControllerOptions{}));
      }
      if (period > 0.0) children.push_back(MakePeriodicController(period));
      if (children.empty()) {
        return Status::InvalidArgument(
            "controller COMPOSITE: every child is toggled off");
      }
      return MakeCompositeController(std::move(children));
    });

}  // namespace

std::unique_ptr<FleetController> MakeCompositeController(
    std::vector<std::unique_ptr<FleetController>> children) {
  return std::make_unique<CompositeController>(std::move(children));
}

}  // namespace kairos::control
