// The telemetry plane's facade (DESIGN.md Sec. 13). A `Telemetry` owns
// one MetricRegistry and one TraceRecorder sharing the same shard layout:
// shard j (j < num_model_shards) belongs to fleet model j's engine, and
// one extra "fleet" shard carries the driving thread's barrier spans and
// fleet-wide gauges. All instrument names are pre-registered in Create()
// so the hot path never touches the registration path.
//
// Wiring: construct via Telemetry::Create(model_names), hand the pointer
// to Fleet::ServeAll through FleetServeOptions::telemetry. A null pointer
// disables everything — the instrumented code paths reduce to one branch
// and the run is bit-identical to an uninstrumented build (enforced by
// tests/telemetry_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace kairos::telemetry {

/// The handles one engine needs on its hot path: registry + tracer
/// pointers, the engine's shard index, and pre-registered metric ids.
/// Copyable POD-of-handles; the Telemetry outlives every holder.
struct EngineInstruments {
  MetricRegistry* metrics = nullptr;
  TraceRecorder* tracer = nullptr;
  std::size_t shard = 0;

  MetricId queries_offered = 0;   ///< counter: arrivals seen
  MetricId queries_rejected = 0;  ///< counter: admission-control rejects
  MetricId queries_shed = 0;      ///< counter: deadline load sheds
  MetricId queries_served = 0;    ///< counter: completions
  MetricId queue_depth = 0;       ///< gauge: central queue depth
  MetricId advance_wall_us = 0;   ///< histogram: wall µs per AdvanceTo
};

/// One registry snapshot taken at a ServeAll barrier.
struct BarrierSample {
  double sim_time = 0.0;       ///< simulated seconds at the barrier
  unsigned barrier_flags = 0;  ///< the barrier's kind bits (fleet.cc)
  MetricSnapshot metrics;
};

class Telemetry {
 public:
  /// `model_names` name the per-model shards (one per fleet model, fleet
  /// order); a final "fleet" shard is appended for the driving thread.
  /// Each shard's trace ring keeps its newest 4096 events. kInvalidArgument
  /// when model_names is empty.
  static StatusOr<std::unique_ptr<Telemetry>> Create(
      std::vector<std::string> model_names);

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TraceRecorder& tracer() { return tracer_; }
  const TraceRecorder& tracer() const { return tracer_; }

  /// Model shards precede the fleet shard.
  std::size_t num_model_shards() const { return num_model_shards_; }
  std::size_t fleet_shard() const { return num_model_shards_; }

  /// Hot-path handles for model shard `shard` (< num_model_shards()).
  EngineInstruments InstrumentsFor(std::size_t shard);

  // Pre-registered fleet-level instruments (written by the driving
  // thread; see each name's # HELP line in telemetry.cc).
  MetricId sim_pending_events() const { return sim_pending_events_; }
  MetricId chaos_faults() const { return chaos_faults_; }
  MetricId control_actions() const { return control_actions_; }
  MetricId barriers() const { return barriers_; }
  MetricId planner_trials() const { return planner_trials_; }
  MetricId trace_dropped() const { return trace_dropped_; }

  /// Clears metric cells, trace rings and drop counters so one plane can
  /// be reused across ServeAll runs. Registrations survive.
  void Reset();

 private:
  Telemetry(std::vector<std::string> shard_names,
            std::size_t num_model_shards);

  std::size_t num_model_shards_;
  MetricRegistry metrics_;
  TraceRecorder tracer_;

  // Engine instrument ids (shared across model shards; the shard index
  // selects the cells).
  MetricId queries_offered_ = 0;
  MetricId queries_rejected_ = 0;
  MetricId queries_shed_ = 0;
  MetricId queries_served_ = 0;
  MetricId queue_depth_ = 0;
  MetricId advance_wall_us_ = 0;
  // Fleet instrument ids.
  MetricId sim_pending_events_ = 0;
  MetricId chaos_faults_ = 0;
  MetricId control_actions_ = 0;
  MetricId barriers_ = 0;
  MetricId planner_trials_ = 0;
  MetricId trace_dropped_ = 0;
};

/// Snapshots the registry at ServeAll barriers into a bounded sample log
/// (FleetServeResult::telemetry_samples). Driving-thread only; every
/// AtBarrier call happens at quiescence (workers joined).
class TelemetrySink {
 public:
  /// `max_samples` bounds the log; once full, later barriers are counted
  /// in dropped_samples() instead of stored.
  explicit TelemetrySink(Telemetry* telemetry,
                         std::size_t max_samples = 4096);

  /// Records one barrier: refreshes the trace-drop gauge, snapshots the
  /// registry, appends a BarrierSample (or counts it dropped when full).
  void AtBarrier(double sim_time, unsigned barrier_flags);

  std::uint64_t dropped_samples() const { return dropped_; }

  /// Moves the sample log out (sink is left empty).
  std::vector<BarrierSample> TakeSamples();

 private:
  Telemetry* telemetry_;
  std::size_t max_samples_;
  std::vector<BarrierSample> samples_;
  std::uint64_t dropped_ = 0;
};

}  // namespace kairos::telemetry
