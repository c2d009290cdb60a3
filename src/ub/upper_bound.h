// Throughput upper-bound estimation (Sec. 5.2): the analytic surrogate that
// lets Kairos rank every configuration under the budget without a single
// online evaluation. For a config with u base nodes and auxiliary types i
// with v_i nodes each:
//
//   C = Σ_i v_i·Q_a^i · (1 - f') / f'            (Eq. 14)
//   QPSmax = u·Q_b^{s+} / (1 - f')               if u·Q_b^{s+} <= C  (base
//                                                 is the bottleneck, Eq. 12)
//   QPSmax = Σ_i v_i·Q_a^i / f'
//            + (u·Q_b^{s+} - C)/(u·Q_b^{s+}) · u·Q_b   otherwise (Eq. 13)
//
// where s' is the largest QoS-feasible batch over the auxiliary types, f'
// the fraction of queries at or below s', Q_b / Q_b^{s+} the base node's
// standalone rate over all / over larger-than-s' queries, and Q_a^i each
// auxiliary node's rate over the small-query mass (the paper's max-(s, f)
// simplification for multiple auxiliary types).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"
#include "latency/latency_model.h"
#include "workload/monitor.h"

namespace kairos::ub {

/// Raw Eq. 12/13/15 evaluation over pre-computed standalone rates.
/// `aux` holds (node count v_i, per-node rate Q_a^i) pairs. Exposed
/// separately so tests can reproduce the paper's Fig. 7 worked examples.
double UpperBoundGeneral(int u, double q_b, double q_b_splus,
                         std::span<const std::pair<int, double>> aux,
                         double f_prime);

/// Everything the estimator derived for one configuration; useful for
/// reports and for the Fig. 14 "UB" series.
struct UpperBoundBreakdown {
  double qps_max = 0.0;
  int s_prime = 0;          ///< largest auxiliary QoS-feasible batch
  double f_prime = 0.0;     ///< query fraction at or below s_prime
  double q_b = 0.0;         ///< base standalone rate, all queries
  double q_b_splus = 0.0;   ///< base standalone rate, queries > s_prime
  double aux_rate_sum = 0.0;///< Σ v_i·Q_a^i
  double c = 0.0;           ///< Eq. 14 intermediate
  bool base_bottleneck = false;  ///< which Eq. 15 branch fired
};

/// Upper-bound estimator bound to one (catalog, model, QoS) context. The
/// auxiliary types and their QoS-feasible batches are read at construction,
/// so the catalog must not gain types while the estimator is in use.
class UpperBoundEstimator {
 public:
  UpperBoundEstimator(const cloud::Catalog& catalog,
                      const latency::LatencyModel& truth, double qos_ms);

  /// Full breakdown for one config given observed workload statistics.
  UpperBoundBreakdown Estimate(const cloud::Config& config,
                               const workload::QueryMonitor& monitor) const;

  /// Shortcut returning only QPSmax.
  double QpsMax(const cloud::Config& config,
                const workload::QueryMonitor& monitor) const {
    return Estimate(config, monitor).qps_max;
  }

  /// Estimates for a whole candidate list (the warmup step the paper times
  /// at "under 2 seconds for 1000 configurations"). Each equals
  /// QpsMax(config, monitor) bit for bit; the monitor is read once per
  /// distinct s', not once per config.
  std::vector<double> EstimateAll(const std::vector<cloud::Config>& configs,
                                  const workload::QueryMonitor& monitor) const;

 private:
  /// The monitor's statistics on either side of one region boundary s'.
  struct Region;
  using AuxRates = std::vector<std::pair<int, double>>;

  /// Step 1: s' of `config`, the largest MaxQosBatch over the auxiliary
  /// types it rents (0 when none). Throws on a config arity mismatch.
  int RegionBoundary(const cloud::Config& config) const;
  /// Step 2: the monitor's statistics at s'.
  static Region ReadRegion(int s_prime, const workload::QueryMonitor& monitor);
  /// Step 3: Eq. 12-15 for `config` in `region`. `aux` is scratch space.
  UpperBoundBreakdown Bound(const cloud::Config& config, const Region& region,
                            double mean_batch, AuxRates& aux) const;
  /// MaxQosBatch of aux_types_[i]; throws std::out_of_range when the
  /// latency model has no curve for that type.
  int AuxMaxBatch(std::size_t i) const;

  const cloud::Catalog& catalog_;
  const latency::LatencyModel& truth_;
  double qos_ms_;
  std::vector<cloud::TypeId> aux_types_;  ///< catalog order
  /// MaxQosBatch per aux_types_ entry; -1 when the type has no curve.
  std::vector<int> aux_max_batch_;
};

}  // namespace kairos::ub
