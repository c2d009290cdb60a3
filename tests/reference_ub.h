// Test-only oracle: the per-configuration upper-bound estimate that
// src/ub/upper_bound.cc replaced, kept verbatim. It scans the monitor's
// histogram three times and re-lists the catalog's auxiliary types for
// every config. The production estimator reads each region once per
// distinct s' instead, and must return the same breakdown, every double
// bit for bit, and throw the same exception type where this one throws.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"
#include "latency/latency_model.h"
#include "ub/upper_bound.h"
#include "workload/monitor.h"

namespace kairos::ub::reference {

// The parameters carry the estimator's member names so the body stays
// verbatim.
inline UpperBoundBreakdown ReferenceEstimate(
    const cloud::Catalog& catalog_, const latency::LatencyModel& truth_,
    double qos_ms_, const cloud::Config& config,
    const workload::QueryMonitor& monitor) {
  if (config.NumTypes() != catalog_.size()) {
    throw std::invalid_argument("UpperBoundEstimator: config arity mismatch");
  }
  UpperBoundBreakdown out;
  const cloud::TypeId base = catalog_.BaseType();
  const int u = config.Count(base);

  // Largest QoS-feasible region across the auxiliary types present.
  int s_prime = 0;
  for (const cloud::TypeId t : catalog_.AuxiliaryTypes()) {
    if (config.Count(t) <= 0) continue;
    s_prime = std::max(s_prime, truth_.MaxQosBatch(t, qos_ms_));
  }
  out.s_prime = s_prime;
  out.f_prime = monitor.FractionAtOrBelow(s_prime);

  // Standalone per-node rates from the affine surface and the monitored
  // batch means: rate = 1000 ms / E[latency_ms].
  const latency::AffineLatency& base_curve = truth_.Curve(base);
  const double mean_all = std::max(1.0, monitor.MeanBatch());
  out.q_b = 1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_all);
  const double mean_large = monitor.MeanBatchAbove(s_prime);
  out.q_b_splus =
      mean_large > 0.0
          ? 1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_large)
          : out.q_b;

  const double mean_small = monitor.MeanBatchAtOrBelow(s_prime);
  std::vector<std::pair<int, double>> aux;
  for (const cloud::TypeId t : catalog_.AuxiliaryTypes()) {
    const int v = config.Count(t);
    if (v <= 0) continue;
    if (truth_.MaxQosBatch(t, qos_ms_) <= 0 || mean_small <= 0.0) {
      aux.emplace_back(v, 0.0);
      continue;
    }
    const latency::AffineLatency& curve = truth_.Curve(t);
    const double rate =
        1000.0 / (curve.base_ms + curve.per_item_ms * mean_small);
    aux.emplace_back(v, rate);
    out.aux_rate_sum += v * rate;
  }

  out.c = out.f_prime > 0.0
              ? out.aux_rate_sum * (1.0 - out.f_prime) / out.f_prime
              : 0.0;
  out.base_bottleneck =
      out.aux_rate_sum > 0.0 && out.f_prime > 0.0 && out.f_prime < 1.0 &&
      u * out.q_b_splus <= out.c;
  out.qps_max = UpperBoundGeneral(u, out.q_b, out.q_b_splus, aux, out.f_prime);
  return out;
}

}  // namespace kairos::ub::reference
