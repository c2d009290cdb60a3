// The benchmark's three workloads. Each drives the library only through
// its public API; the benchmark generates every input from the seed.
//
//   serve_stream  one RM2 serving::Engine pinned to config (3,0,4,35) on
//                 the paper pool, fed a seeded trace CSV through STREAM at
//                 725 q/s, advanced in fixed simulated steps;
//   serve_fleet   Fleet::ServeAll over the 8-shard fleet at $24/hr
//                 (STATIC, KAIROS, QOS controller) with two load shifts;
//   plan          Fleet::PlanAll over the five Table-3 models (MARGINAL,
//                 KAIROS+) at fleet budgets $8, $12 and $15.
//
// A pass is one Setup() followed by one Run(). Every pass of a workload
// with a given seed simulates exactly the same thing, so its fingerprint
// must repeat across passes and modes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Which names a pass drives the library through.
enum class Mode {
  kPlain,     ///< the library's own registry names, no wrappers
  kMeasured,  ///< wrappers where the end-to-end timing needs one, no spans
  kTraced,    ///< every wrapper the workload can reach, spans recorded
};

/// What one pass produced.
struct PassResult {
  /// Machine-speed factor for this pass's times (see calibration.h); 1
  /// when the pass took no speed samples.
  double time_scale = 1.0;
  double wall_s = 0.0;          ///< wall time of the timed phase, raw
  double peak_rss_mb = 0.0;     ///< peak resident set of set-up + run
  /// Wall time of each timed step, already scaled for machine speed.
  std::vector<double> step_ms;
  double goodput_qps = 0.0;     ///< see METRICS.md; deterministic
  std::uint64_t fingerprint = 0;
  std::size_t attempted = 0;    ///< timed operations; any failure is an error
  // Metrics shown only in the readable report; < 0 = not applicable.
  double sim_qps = -1.0;
  double plan_evals = -1.0;
  double plan_qps = -1.0;
  double failed_share = -1.0;
  // Inputs to the per-layer report that spans cannot give.
  double offered = 0.0;         ///< simulated queries offered
  double events_fired = 0.0;    ///< simulator events (serve_stream)
  double pending_max = 0.0;     ///< max live events seen after a step
  double windows = 0.0;         ///< window barriers (serve_fleet)
  double reallocations = 0.0;   ///< fleet reallocations (serve_fleet)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything the timed phase needs: catalog, model truth,
  /// monitor warm-up, initial plan, engine or fleet construction.
  virtual kairos::Status Setup(Mode mode) = 0;

  /// Runs the timed phase on what the last Setup() built and checks its
  /// outputs; any failed check is an error Status.
  virtual kairos::StatusOr<PassResult> Run() = 0;
};

/// serve_stream, serve_fleet or plan; generates the workload's inputs
/// under `input_dir` from `seed`.
kairos::StatusOr<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, std::uint64_t seed, const std::string& input_dir);

}  // namespace perfbench
