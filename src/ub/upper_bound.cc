#include "ub/upper_bound.h"

#include <algorithm>
#include <stdexcept>

namespace kairos::ub {

double UpperBoundGeneral(int u, double q_b, double q_b_splus,
                         std::span<const std::pair<int, double>> aux,
                         double f_prime) {
  if (u <= 0) return 0.0;  // no base: the largest queries can never be QoS-met
  double aux_rate = 0.0;
  for (const auto& [v, q] : aux) aux_rate += v * q;

  if (aux_rate <= 0.0 || f_prime <= 0.0) {
    // No effective auxiliary capacity, or no query small enough for any
    // auxiliary: the pool degenerates to homogeneous base serving.
    return u * q_b;
  }
  if (f_prime >= 1.0) {
    // Every query fits the auxiliaries: both tiers run at full rate.
    return aux_rate + u * q_b;
  }

  const double base_splus_rate = u * q_b_splus;
  const double c = aux_rate * (1.0 - f_prime) / f_prime;  // Eq. 14
  if (base_splus_rate <= c) {
    return base_splus_rate / (1.0 - f_prime);  // Eq. 12: base bottleneck
  }
  const double slack_ratio = (base_splus_rate - c) / base_splus_rate;
  return aux_rate / f_prime + slack_ratio * u * q_b;  // Eq. 13
}

struct UpperBoundEstimator::Region {
  int s_prime = 0;
  double f_prime = 0.0;     // FractionAtOrBelow(s_prime)
  double mean_large = 0.0;  // MeanBatchAbove(s_prime)
  double mean_small = 0.0;  // MeanBatchAtOrBelow(s_prime)
};

UpperBoundEstimator::UpperBoundEstimator(const cloud::Catalog& catalog,
                                         const latency::LatencyModel& truth,
                                         double qos_ms)
    : catalog_(catalog),
      truth_(truth),
      qos_ms_(qos_ms),
      aux_types_(catalog.AuxiliaryTypes()) {
  if (qos_ms <= 0.0) {
    throw std::invalid_argument("UpperBoundEstimator: qos_ms must be > 0");
  }
  // A type without a latency curve may still be in the catalog: only a
  // config that rents it fails, in AuxMaxBatch.
  aux_max_batch_.reserve(aux_types_.size());
  for (const cloud::TypeId t : aux_types_) {
    aux_max_batch_.push_back(t < truth.NumTypes() ? truth.MaxQosBatch(t, qos_ms)
                                                  : -1);
  }
}

int UpperBoundEstimator::AuxMaxBatch(std::size_t i) const {
  return aux_max_batch_[i] >= 0 ? aux_max_batch_[i]
                                : truth_.MaxQosBatch(aux_types_[i], qos_ms_);
}

int UpperBoundEstimator::RegionBoundary(const cloud::Config& config) const {
  if (config.NumTypes() != catalog_.size()) {
    throw std::invalid_argument("UpperBoundEstimator: config arity mismatch");
  }
  // Largest QoS-feasible region across the auxiliary types present.
  int s_prime = 0;
  for (std::size_t i = 0; i < aux_types_.size(); ++i) {
    if (config.Count(aux_types_[i]) <= 0) continue;
    s_prime = std::max(s_prime, AuxMaxBatch(i));
  }
  return s_prime;
}

UpperBoundEstimator::Region UpperBoundEstimator::ReadRegion(
    int s_prime, const workload::QueryMonitor& monitor) {
  Region r;
  r.s_prime = s_prime;
  r.f_prime = monitor.FractionAtOrBelow(s_prime);
  r.mean_large = monitor.MeanBatchAbove(s_prime);
  r.mean_small = monitor.MeanBatchAtOrBelow(s_prime);
  return r;
}

UpperBoundBreakdown UpperBoundEstimator::Bound(const cloud::Config& config,
                                               const Region& region,
                                               double mean_batch,
                                               AuxRates& aux) const {
  UpperBoundBreakdown out;
  const cloud::TypeId base = catalog_.BaseType();
  const int u = config.Count(base);
  out.s_prime = region.s_prime;
  out.f_prime = region.f_prime;

  // Standalone per-node rates from the affine surface and the monitored
  // batch means: rate = 1000 ms / E[latency_ms].
  const latency::AffineLatency& base_curve = truth_.Curve(base);
  const double mean_all = std::max(1.0, mean_batch);
  out.q_b = 1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_all);
  out.q_b_splus = region.mean_large > 0.0
                      ? 1000.0 / (base_curve.base_ms +
                                  base_curve.per_item_ms * region.mean_large)
                      : out.q_b;

  aux.clear();
  for (std::size_t i = 0; i < aux_types_.size(); ++i) {
    const cloud::TypeId t = aux_types_[i];
    const int v = config.Count(t);
    if (v <= 0) continue;
    if (AuxMaxBatch(i) <= 0 || region.mean_small <= 0.0) {
      aux.emplace_back(v, 0.0);
      continue;
    }
    const latency::AffineLatency& curve = truth_.Curve(t);
    const double rate =
        1000.0 / (curve.base_ms + curve.per_item_ms * region.mean_small);
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

UpperBoundBreakdown UpperBoundEstimator::Estimate(
    const cloud::Config& config, const workload::QueryMonitor& monitor) const {
  const Region region = ReadRegion(RegionBoundary(config), monitor);
  AuxRates aux;
  return Bound(config, region, monitor.MeanBatch(), aux);
}

std::vector<double> UpperBoundEstimator::EstimateAll(
    const std::vector<cloud::Config>& configs,
    const workload::QueryMonitor& monitor) const {
  std::vector<double> out;
  out.reserve(configs.size());
  // s' is 0 or one auxiliary type's MaxQosBatch, so there are at most
  // aux_types_.size() + 1 regions to read and the loop never allocates.
  std::vector<Region> regions;
  regions.reserve(aux_types_.size() + 1);
  AuxRates aux;
  aux.reserve(aux_types_.size());
  const double mean_batch = monitor.MeanBatch();
  for (const cloud::Config& c : configs) {
    const int s_prime = RegionBoundary(c);
    auto region = std::find_if(
        regions.begin(), regions.end(),
        [s_prime](const Region& r) { return r.s_prime == s_prime; });
    if (region == regions.end()) {
      region = regions.insert(regions.end(), ReadRegion(s_prime, monitor));
    }
    out.push_back(Bound(c, *region, mean_batch, aux).qps_max);
  }
  return out;
}

}  // namespace kairos::ub
