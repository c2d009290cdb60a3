// What a serving run is about and what it reports: the deployment spec
// (catalog, configuration, ground-truth latency surface, QoS target), the
// run knobs shared by every serving::Engine, and the cumulative results
// Engine::Totals() returns in batch form. The experimental substrate these
// describe stands in for the paper's EC2 + gRPC deployment (DESIGN.md
// Sec. 1); the engine that runs it is serving/engine.h.
#pragma once

#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"
#include "latency/latency_model.h"
#include "serving/instance.h"

namespace kairos::serving {

/// Immutable description of what is being simulated.
struct SystemSpec {
  const cloud::Catalog* catalog = nullptr;
  cloud::Config config;
  /// Ground-truth latency surface (actual execution times).
  const latency::LatencyModel* truth = nullptr;
  double qos_ms = 0.0;
};

/// Simulation-run knobs.
struct RunOptions {
  /// Abort the run once this fraction of offered queries has violated QoS
  /// (the run can no longer pass a p99 check; saves time in overload
  /// trials). 0 disables early abort.
  double abort_violation_fraction = 0.05;

  /// At most this many waiting queries are handed to the policy per round
  /// (FIFO prefix). Bounds matcher cost under extreme overload without
  /// affecting ordering fairness.
  std::size_t matcher_window = 64;

  /// Keep per-query ServedRecords (costs memory on huge traces).
  bool keep_records = false;

  /// Keep the cumulative per-completion latency vector that backs
  /// Totals()'s p99/mean. Sustained-throughput runs (10M+ queries) turn
  /// this off to hold peak RSS flat: the mean stays exact (running sum)
  /// but the cumulative p99 reads 0 — read per-window p99 from
  /// TakeWindow() instead, which is unaffected.
  bool keep_latencies = true;
};

/// Results of one simulation run.
struct RunResult {
  std::size_t offered = 0;      ///< queries in the trace
  std::size_t served = 0;       ///< completed before the run ended
  std::size_t violations = 0;   ///< served with latency > QoS
  /// Arrivals turned away at admission (bounded queue full); 0 unless
  /// AdmissionOptions is in play. Rejected queries count in `offered`.
  std::size_t rejected = 0;
  /// Queued queries dropped by deadline shedding; 0 unless enabled.
  std::size_t shed = 0;
  bool aborted = false;         ///< early-aborted due to violation overflow

  double p99_ms = 0.0;          ///< 99th-percentile end-to-end latency
  double mean_ms = 0.0;
  Time makespan = 0.0;          ///< last completion time
  /// served / makespan; 0 (never NaN) when nothing completed — an empty
  /// trace or a run whose every query was still queued at abort time.
  double throughput_qps = 0.0;

  /// True when the run can claim "allowable" status: a non-empty offered
  /// load, everything served, and the p99 within QoS. A zero-offered run
  /// never qualifies — it demonstrated nothing.
  bool QosMet(double qos_ms) const {
    return !aborted && offered > 0 && served == offered && p99_ms <= qos_ms;
  }

  std::vector<double> latencies_ms;     ///< per served query
  std::vector<ServedRecord> records;    ///< when RunOptions::keep_records
  std::vector<double> per_type_busy;    ///< busy seconds per TypeId
  std::vector<std::size_t> per_type_served;  ///< completions per TypeId
};

}  // namespace kairos::serving
