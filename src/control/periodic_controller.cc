// "PERIODIC": the pre-control-plane reallocation loop as a controller —
// one kReallocate every period_s, demand rates measured over exactly the
// period. Fleet::ServeAll reallocates periodically only through it
// (FleetServeOptions::controller = "PERIODIC" with a "period_s" knob);
// COMPOSITE chains it as a safety net behind closed-loop siblings.
#include <string>

#include "common/strings.h"
#include "control/controllers.h"

namespace kairos::control {
namespace {

constexpr double kEps = 1e-9;

class PeriodicController final : public FleetController {
 public:
  explicit PeriodicController(double period_s) : period_s_(period_s) {}

  std::string Name() const override { return "PERIODIC"; }

  std::vector<Time> DecisionTimes(const ControlSchedule& schedule) const
      override {
    std::vector<Time> times;
    if (period_s_ <= 0.0) return times;
    // k * period, never accumulated — a non-representable period must not
    // drift into a duplicate barrier just below the horizon (the same
    // arithmetic the window grid uses).
    for (std::size_t k = 1;; ++k) {
      const double t = static_cast<double>(k) * period_s_;
      if (t >= schedule.duration_s - kEps) break;
      times.push_back(t);
    }
    return times;
  }

  std::vector<ControlAction> Decide(const FleetTelemetry& telemetry) override {
    if (period_s_ <= 0.0) return {};
    const double due = static_cast<double>(next_) * period_s_;
    if (telemetry.now + kEps < due) return {};
    const double due_prev = static_cast<double>(next_ - 1) * period_s_;
    while (static_cast<double>(next_) * period_s_ <= telemetry.now + kEps) {
      ++next_;
    }
    // Safety-net gating: when a reallocation already ran strictly inside
    // the current period (a closed-loop sibling in a COMPOSITE fired),
    // the fleet is fresh — skip the redundant re-split. Standalone, the
    // previous reallocation sits exactly on the previous grid point, so
    // this never suppresses the fixed cadence.
    if (telemetry.last_reallocation > due_prev + kEps) return {};
    ControlAction action;
    action.kind = ControlActionKind::kReallocate;
    // On the pure cadence the demand-measurement interval is exactly the
    // period (the pre-control-plane arithmetic, bit for bit); after an
    // off-grid sibling reallocation, defer to the fleet's measured
    // time-since-last instead of misstating it.
    action.interval_s =
        telemetry.last_reallocation == due_prev ? period_s_ : 0.0;
    action.reason = "fixed " + FormatSeconds(period_s_) + " period";
    return {action};
  }

 private:
  double period_s_ = 0.0;
  std::size_t next_ = 1;  ///< next period multiple that fires
};

const ControllerRegistrar kPeriodic(
    ControllerInfo{"PERIODIC",
                   "reallocate on a fixed timer (the pre-control-plane "
                   "ServeAll loop); period_s = 0 never fires",
                   {{"period_s", 0.0}}},
    [](const KnobMap& knobs) -> StatusOr<std::unique_ptr<FleetController>> {
      const double period = knobs.at("period_s");
      if (period < 0.0) {
        return Status::InvalidArgument(
            "controller PERIODIC: period_s must be >= 0, got " +
            std::to_string(period));
      }
      return MakePeriodicController(period);
    });

}  // namespace

std::unique_ptr<FleetController> MakePeriodicController(double period_s) {
  return std::make_unique<PeriodicController>(period_s);
}

}  // namespace kairos::control
