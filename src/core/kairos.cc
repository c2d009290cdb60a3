#include "core/kairos.h"

#include "policy/kairos_policy.h"

namespace kairos::core {

Kairos::Kairos(const cloud::Catalog& catalog, const latency::ModelSpec& spec,
               KairosOptions options)
    : catalog_(catalog),
      truth_(spec.Instantiate(catalog)),
      qos_ms_(spec.qos_ms * options.qos_scale),
      options_(options),
      monitor_(options.monitor_warmup) {}

StatusOr<Kairos> Kairos::Create(const cloud::Catalog& catalog,
                                const std::string& model,
                                KairosOptions options) {
  const latency::ModelSpec* spec = latency::TryFindModel(model);
  if (spec == nullptr) {
    return Status::NotFound("unknown model \"" + model +
                            "\"; Table-3 models: " + latency::ModelZooNames());
  }
  if (options.qos_scale <= 0.0) {
    return Status::InvalidArgument("qos_scale must be positive");
  }
  if (options.budget_per_hour <= 0.0) {
    return Status::InvalidArgument("budget_per_hour must be positive");
  }
  if (options.monitor_warmup == 0) {
    return Status::InvalidArgument("monitor_warmup must be positive");
  }
  return Kairos(catalog, *spec, options);
}

void Kairos::ObserveMix(const workload::BatchDistribution& mix) {
  Rng rng(options_.seed);
  for (std::size_t i = 0; i < options_.monitor_warmup; ++i) {
    monitor_.Observe(mix.Sample(rng));
  }
}

StatusOr<Plan> Kairos::PlanConfiguration() const {
  return PlanOneShot(Context(), monitor_);
}

StatusOr<search::SearchResult> Kairos::PlanWithEvaluations(
    const search::EvalFn& eval, const search::SearchOptions& options) const {
  return PlanKairosPlus(Context(), monitor_, eval, options);
}

StatusOr<std::unique_ptr<serving::Engine>> Kairos::Deploy(
    const cloud::Config& config, serving::EngineOptions engine_options,
    sim::Simulator* shared_clock) const {
  serving::SystemSpec spec;
  spec.catalog = &catalog_;
  spec.config = config;
  spec.truth = &truth_;
  spec.qos_ms = qos_ms_;
  return serving::Engine::Create(spec, std::make_unique<policy::KairosPolicy>(),
                                 {}, engine_options, shared_clock);
}

serving::EvalResult Kairos::MeasureThroughput(
    const cloud::Config& config, const workload::BatchDistribution& mix,
    const serving::EvalOptions& eval_options) const {
  return serving::EvaluateConfig(
      catalog_, config, truth_, qos_ms_,
      [] { return std::make_unique<policy::KairosPolicy>(); }, mix,
      eval_options);
}

workload::QueryMonitor MonitorFromMix(const workload::BatchDistribution& mix,
                                      std::size_t count, std::uint64_t seed) {
  workload::QueryMonitor monitor(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) monitor.Observe(mix.Sample(rng));
  return monitor;
}

}  // namespace kairos::core
