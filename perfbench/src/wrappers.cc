#include "wrappers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "calibration.h"
#include "control/controller.h"
#include "core/planner_backend.h"
#include "policy/registry.h"
#include "span_recorder.h"
#include "workload/query_source.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Runs one reference unit and records it; untraced planner wrappers call
/// this before the work they forward.
double SampleUnit() {
  const double s = ReferenceUnitSeconds();
  Observations::Global().AddUnit(s);
  return s;
}

class TracedPolicy final : public kairos::policy::Policy {
 public:
  explicit TracedPolicy(std::unique_ptr<kairos::policy::Policy> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  bool EarlyBinding() const override { return inner_->EarlyBinding(); }
  void Reset() override { inner_->Reset(); }

  using Policy::Distribute;
  void Distribute(const kairos::policy::RoundContext& ctx,
                  std::vector<kairos::policy::Assignment>& out) override {
    {
      ScopedSpan span(ActiveRecorder(), SpanKind::kPolicyRound);
      inner_->Distribute(ctx, out);
    }
    // Round statistics are derived after the span closes, so they land in
    // the caller's self time (tracing overhead), not in the policy's.
    double idle = 0.0;
    columns_.clear();
    for (const kairos::serving::InstanceView& view : ctx.instances) {
      if (view.idle) idle += 1.0;
      columns_.emplace_back(view.type, view.available_at);
    }
    std::sort(columns_.begin(), columns_.end());
    const auto distinct = static_cast<double>(
        std::unique(columns_.begin(), columns_.end()) - columns_.begin());
    double started = 0.0;
    for (const kairos::policy::Assignment& a : out) {
      if (ctx.instances[a.instance_idx].idle) started += 1.0;
    }
    const auto waiting = static_cast<double>(ctx.waiting.size());
    Observations::Global().AddRound(
        waiting, idle, static_cast<double>(out.size()), started,
        waiting * static_cast<double>(ctx.instances.size()), distinct);
  }

 private:
  std::unique_ptr<kairos::policy::Policy> inner_;
  std::vector<std::pair<kairos::cloud::TypeId, double>> columns_;  ///< scratch
};

class TracedSource final : public kairos::workload::QuerySource {
 public:
  explicit TracedSource(std::unique_ptr<kairos::workload::QuerySource> inner)
      : inner_(std::move(inner)) {}

  std::optional<kairos::workload::Emission> Next(kairos::Rng& rng) override {
    std::optional<kairos::workload::Emission> emission;
    {
      ScopedSpan span(ActiveRecorder(), SpanKind::kSourceNext);
      emission = inner_->Next(rng);
    }
    if (emission.has_value()) Observations::Global().AddEmission();
    return emission;
  }
  double Rate() const override { return inner_->Rate(); }
  std::string Name() const override { return inner_->Name(); }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<kairos::workload::QuerySource> inner_;
};

class TracedPlanner final : public kairos::core::PlannerBackend {
 public:
  explicit TracedPlanner(std::unique_ptr<kairos::core::PlannerBackend> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  bool NeedsEvaluations() const override {
    return inner_->NeedsEvaluations();
  }

  kairos::StatusOr<kairos::core::PlannerOutcome> Plan(
      const kairos::core::PlannerContext& ctx,
      const kairos::core::PlanRequest& request) const override {
    ScopedSpan span(ActiveRecorder(), SpanKind::kPlan);
    if (request.eval == nullptr) return inner_->Plan(ctx, request);
    kairos::core::PlanRequest forwarded = request;
    forwarded.eval = ObserveEval(request.eval);
    return inner_->Plan(ctx, forwarded);
  }

  kairos::StatusOr<kairos::core::PlannerOutcome> Probe(
      const kairos::core::PlannerContext& ctx,
      const kairos::core::PlanRequest& request) const override {
    SpanRecorder* const recorder = ActiveRecorder();
    if (recorder == nullptr) SampleUnit();
    ScopedSpan span(recorder, SpanKind::kProbe);
    return inner_->Probe(ctx, request);
  }

 private:
  std::unique_ptr<kairos::core::PlannerBackend> inner_;
};

class TracedController final : public kairos::control::FleetController {
 public:
  explicit TracedController(
      std::unique_ptr<kairos::control::FleetController> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  std::vector<kairos::Time> DecisionTimes(
      const kairos::control::ControlSchedule& schedule) const override {
    return inner_->DecisionTimes(schedule);
  }
  bool NeedsLiveMix() const override { return inner_->NeedsLiveMix(); }

  std::vector<kairos::control::ControlAction> Decide(
      const kairos::control::FleetTelemetry& telemetry) override {
    std::vector<kairos::control::ControlAction> actions;
    {
      ScopedSpan span(ActiveRecorder(), SpanKind::kDecide);
      actions = inner_->Decide(telemetry);
    }
    Observations::Global().AddActions(actions.size());
    return actions;
  }

 private:
  std::unique_ptr<kairos::control::FleetController> inner_;
};

void CheckRegistered(const kairos::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    std::abort();
  }
}

void RegisterPlanner(const char* name, std::string inner_name) {
  CheckRegistered(kairos::PlannerRegistry::Global().Register(
      name, "benchmark wrapper of " + inner_name, [inner_name] {
        auto inner = kairos::PlannerRegistry::Global().Build(inner_name);
        // The inner name is a built-in backend; failing here is a bug.
        CheckRegistered(inner.status());
        return std::unique_ptr<kairos::core::PlannerBackend>(
            std::make_unique<TracedPlanner>(*std::move(inner)));
      }));
}

void RegisterAll() {
  using kairos::StatusOr;
  auto policy_info = kairos::PolicyRegistry::Global().Info("KAIROS");
  CheckRegistered(policy_info.status());
  CheckRegistered(kairos::PolicyRegistry::Global().Register(
      kairos::policy::PolicyInfo{kPolicyName, "benchmark wrapper of KAIROS",
                                 policy_info->knobs},
      [](const kairos::policy::KnobMap& knobs)
          -> StatusOr<std::unique_ptr<kairos::policy::Policy>> {
        auto inner = kairos::PolicyRegistry::Global().Build("KAIROS", knobs);
        if (!inner.ok()) return inner.status();
        return std::unique_ptr<kairos::policy::Policy>(
            std::make_unique<TracedPolicy>(*std::move(inner)));
      }));

  CheckRegistered(kairos::QuerySourceRegistry::Global().Register(
      kSourceName, "benchmark wrapper of STREAM",
      [](const kairos::workload::QuerySourceSpec& spec)
          -> StatusOr<std::unique_ptr<kairos::workload::QuerySource>> {
        kairos::workload::QuerySourceSpec inner_spec = spec;
        inner_spec.source = "STREAM";
        auto inner = kairos::QuerySourceRegistry::Global().Build(inner_spec);
        if (!inner.ok()) return inner.status();
        return std::unique_ptr<kairos::workload::QuerySource>(
            std::make_unique<TracedSource>(*std::move(inner)));
      }));

  RegisterPlanner(kOneShotPlannerName, "KAIROS");
  RegisterPlanner(kSearchPlannerName, "KAIROS+");

  auto controller_info = kairos::ControllerRegistry::Global().Info("QOS");
  CheckRegistered(controller_info.status());
  CheckRegistered(kairos::ControllerRegistry::Global().Register(
      kairos::control::ControllerInfo{kControllerName,
                                      "benchmark wrapper of QOS",
                                      controller_info->knobs},
      [](const kairos::control::KnobMap& knobs)
          -> StatusOr<std::unique_ptr<kairos::control::FleetController>> {
        auto inner = kairos::ControllerRegistry::Global().Build("QOS", knobs);
        if (!inner.ok()) return inner.status();
        return std::unique_ptr<kairos::control::FleetController>(
            std::make_unique<TracedController>(*std::move(inner)));
      }));
}

}  // namespace

void RegisterWrappers() {
  static std::once_flag once;
  std::call_once(once, RegisterAll);
}

Observations& Observations::Global() {
  static Observations* observations = new Observations();
  return *observations;
}

void Observations::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ = ObservationTotals{};
}

ObservationTotals Observations::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void Observations::AddRound(double waiting, double idle, double proposals,
                            double started, double cells,
                            double distinct_cols) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.rounds;
  totals_.waiting += waiting;
  totals_.idle += idle;
  totals_.proposals += proposals;
  totals_.started += started;
  totals_.cells += cells;
  totals_.distinct_cols += distinct_cols;
}

void Observations::AddEmission() {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.emissions;
}

void Observations::AddActions(std::size_t actions) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.actions += actions;
}

void Observations::AddEval(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.eval_ms.push_back(ms);
}

void Observations::AddUnit(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.units;
  totals_.unit_s += seconds;
}

kairos::search::EvalFn ObserveEval(kairos::search::EvalFn inner) {
  return [inner = std::move(inner)](const kairos::cloud::Config& config) {
    SpanRecorder* const recorder = ActiveRecorder();
    if (recorder == nullptr) SampleUnit();
    const Clock::time_point start = Clock::now();
    double qps = 0.0;
    {
      ScopedSpan span(recorder, SpanKind::kEval);
      qps = inner(config);
    }
    Observations::Global().AddEval(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    return qps;
  };
}

}  // namespace perfbench
