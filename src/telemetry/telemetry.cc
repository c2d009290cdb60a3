#include "telemetry/telemetry.h"

#include <utility>

namespace kairos::telemetry {
namespace {

/// Trace ring capacity per shard; the newest events win (drop-oldest).
constexpr std::size_t kTraceEventsPerShard = 4096;

/// advance_wall_us buckets: 1 µs .. 100 ms, roughly log-spaced. An engine
/// advance between barriers is typically tens of µs on the tiny suites
/// and tens of ms on the sustained run.
std::vector<double> AdvanceBounds() {
  return {1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000};
}

}  // namespace

Telemetry::Telemetry(std::vector<std::string> shard_names,
                     std::size_t num_model_shards)
    : num_model_shards_(num_model_shards),
      metrics_(shard_names),
      tracer_(std::move(shard_names), kTraceEventsPerShard) {}

StatusOr<std::unique_ptr<Telemetry>> Telemetry::Create(
    std::vector<std::string> model_names) {
  if (model_names.empty()) {
    return Status::InvalidArgument(
        "telemetry: need at least one model shard");
  }
  const std::size_t num_models = model_names.size();
  model_names.push_back("fleet");
  // Private ctor: can't use make_unique.
  std::unique_ptr<Telemetry> telemetry(
      new Telemetry(std::move(model_names), num_models));

  MetricRegistry& reg = telemetry->metrics_;
  // Registration failures here would be programming errors (fixed,
  // distinct, Prometheus-safe names) — propagate anyway for safety.
  const auto take = [](StatusOr<MetricId> id_or,
                       MetricId* out) -> Status {
    if (!id_or.ok()) return id_or.status();
    *out = id_or.value();
    return Status::Ok();
  };
  struct Reg {
    StatusOr<MetricId> id_or;
    MetricId* out;
  };
  Reg regs[] = {
      {reg.RegisterCounter("kairos_queries_offered_total",
                           "Arrivals seen by each shard's engine"),
       &telemetry->queries_offered_},
      {reg.RegisterCounter("kairos_queries_rejected_total",
                           "Arrivals rejected by admission control"),
       &telemetry->queries_rejected_},
      {reg.RegisterCounter("kairos_queries_shed_total",
                           "Waiting queries shed as past-deadline"),
       &telemetry->queries_shed_},
      {reg.RegisterCounter("kairos_queries_served_total",
                           "Query completions"),
       &telemetry->queries_served_},
      {reg.RegisterGauge("kairos_queue_depth",
                         "Central waiting-queue depth after last arrival"),
       &telemetry->queue_depth_},
      {reg.RegisterHistogram("kairos_engine_advance_us",
                             "Wall microseconds per engine AdvanceTo",
                             AdvanceBounds()),
       &telemetry->advance_wall_us_},
      {reg.RegisterGauge("kairos_sim_pending_events",
                         "Simulator event-queue depth at the last barrier"),
       &telemetry->sim_pending_events_},
      {reg.RegisterCounter("kairos_chaos_faults_total",
                           "Chaos faults applied at barriers"),
       &telemetry->chaos_faults_},
      {reg.RegisterCounter("kairos_control_actions_total",
                           "Non-hold controller actions applied"),
       &telemetry->control_actions_},
      {reg.RegisterCounter("kairos_barriers_total",
                           "ServeAll barriers crossed"),
       &telemetry->barriers_},
      {reg.RegisterCounter("kairos_planner_trials_total",
                           "Planner search-trial evaluations"),
       &telemetry->planner_trials_},
      {reg.RegisterGauge("kairos_trace_dropped",
                         "Trace ring-buffer drop-oldest count per shard"),
       &telemetry->trace_dropped_},
  };
  for (Reg& r : regs) {
    const Status status = take(std::move(r.id_or), r.out);
    if (!status.ok()) return status;
  }
  return telemetry;
}

EngineInstruments Telemetry::InstrumentsFor(std::size_t shard) {
  EngineInstruments instruments;
  instruments.metrics = &metrics_;
  instruments.tracer = &tracer_;
  instruments.shard = shard;
  instruments.queries_offered = queries_offered_;
  instruments.queries_rejected = queries_rejected_;
  instruments.queries_shed = queries_shed_;
  instruments.queries_served = queries_served_;
  instruments.queue_depth = queue_depth_;
  instruments.advance_wall_us = advance_wall_us_;
  return instruments;
}

void Telemetry::Reset() {
  metrics_.Reset();
  tracer_.Reset();
}

TelemetrySink::TelemetrySink(Telemetry* telemetry, std::size_t max_samples)
    : telemetry_(telemetry), max_samples_(max_samples) {}

void TelemetrySink::AtBarrier(double sim_time, unsigned barrier_flags) {
  if (telemetry_ == nullptr) return;
  // Refresh the per-shard trace-drop gauge; safe on the driving thread
  // because every AtBarrier call happens at quiescence.
  MetricRegistry& reg = telemetry_->metrics();
  for (std::size_t shard = 0; shard < reg.num_shards(); ++shard) {
    reg.Set(telemetry_->trace_dropped(), shard,
            static_cast<double>(telemetry_->tracer().DroppedCount(shard)));
  }
  if (samples_.size() >= max_samples_) {
    ++dropped_;
    return;
  }
  BarrierSample sample;
  sample.sim_time = sim_time;
  sample.barrier_flags = barrier_flags;
  sample.metrics = reg.Snapshot();
  samples_.push_back(std::move(sample));
}

std::vector<BarrierSample> TelemetrySink::TakeSamples() {
  return std::move(samples_);
}

}  // namespace kairos::telemetry
