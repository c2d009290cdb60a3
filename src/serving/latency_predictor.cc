#include "serving/latency_predictor.h"

#include <algorithm>
#include <cstdint>

namespace kairos::serving {
namespace {

/// Seed of the prediction-noise stream.
constexpr std::uint64_t kNoiseSeed = 0x5EEDED;

}  // namespace

LatencyPredictor::LatencyPredictor(const cloud::Catalog& catalog,
                                   const latency::LatencyModel& truth,
                                   PredictorOptions options)
    : per_type_(catalog.size()),
      noise_(options.noise_sigma, Rng(kNoiseSeed)) {
  if (options.pretrained) {
    // Seed the regression with two exact points per type: the converged
    // predictor the paper's steady state reaches.
    for (cloud::TypeId t = 0; t < catalog.size(); ++t) {
      Observe(t, 1, truth.LatencyMs(t, 1));
      Observe(t, latency::kMaxBatchSize,
              truth.LatencyMs(t, latency::kMaxBatchSize));
    }
  }
}

double LatencyPredictor::RawPredict(const TypeState& st, int batch) const {
  const int b = std::clamp(batch, 1, int{latency::kMaxBatchSize});
  // Lookup table first: exact repeats dominate in steady state.
  if (!st.samples.empty() && st.samples[static_cast<std::size_t>(b)] > 0) {
    return st.mean_ms[static_cast<std::size_t>(b)];
  }
  if (st.distinct_batches >= 2) {
    const double n = static_cast<double>(st.n);
    const double denom = n * st.sxx - st.sx * st.sx;
    if (denom > 0.0) {
      const double k = (n * st.sxy - st.sx * st.sy) / denom;
      const double a = (st.sy - k * st.sx) / n;
      return std::max(0.0, a + k * b);
    }
  }
  if (st.n >= 1) {
    // One distinct batch observed: scale proportionally (crude but only
    // used for the first few queries of a cold start).
    const double mean_y = st.sy / static_cast<double>(st.n);
    const double mean_x = st.sx / static_cast<double>(st.n);
    return mean_y * static_cast<double>(b) / std::max(1.0, mean_x);
  }
  // Nothing observed: an optimistic prior that encourages exploration.
  return 0.1;
}

double LatencyPredictor::PredictMs(cloud::TypeId type, int batch) {
  return noise_.Apply(RawPredict(per_type_.at(type), batch));
}

double LatencyPredictor::PredictMsNoiseless(cloud::TypeId type,
                                            int batch) const {
  return RawPredict(per_type_.at(type), batch);
}

void LatencyPredictor::PredictMsNoiselessBatch(cloud::TypeId type,
                                               const std::vector<int>& batches,
                                               std::vector<double>& out) const {
  const TypeState& st = per_type_.at(type);
  out.resize(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    out[i] = RawPredict(st, batches[i]);
  }
}

void LatencyPredictor::Observe(cloud::TypeId type, int batch,
                               double latency_ms) {
  TypeState& st = per_type_.at(type);
  const int b = std::clamp(batch, 1, int{latency::kMaxBatchSize});
  if (st.samples.empty()) {
    // Allocated on first observation so idle types stay at zero footprint.
    st.mean_ms.assign(latency::kMaxBatchSize + 1, 0.0);
    st.samples.assign(latency::kMaxBatchSize + 1, 0);
  }
  const auto bi = static_cast<std::size_t>(b);
  if (st.samples[bi] == 0) {
    st.mean_ms[bi] = latency_ms;
    st.samples[bi] = 1;
    ++st.distinct_batches;
  } else {
    ++st.samples[bi];
    st.mean_ms[bi] +=
        (latency_ms - st.mean_ms[bi]) / static_cast<double>(st.samples[bi]);
  }
  ++st.n;
  st.sx += b;
  st.sy += latency_ms;
  st.sxx += static_cast<double>(b) * b;
  st.sxy += static_cast<double>(b) * latency_ms;
}

bool LatencyPredictor::HasLinearFit(cloud::TypeId type) const {
  return per_type_.at(type).distinct_batches >= 2;
}

std::size_t LatencyPredictor::ObservationCount(cloud::TypeId type) const {
  return per_type_.at(type).n;
}

}  // namespace kairos::serving
