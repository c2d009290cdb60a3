// Online latency predictor (Sec. 5.1 "Remarks on assumptions and overhead"):
// Kairos predicts query latency per (instance type, batch size). It starts
// with a linear model fitted online and transitions to a lookup table as
// batches repeat; the paper notes Pearson(latency, batch) > 0.99, so the
// linear phase is already accurate after a handful of queries.
//
// Prediction noise (Fig. 16b) is injected here, emulating cloud performance
// variability between the predicted and realized latency.
#pragma once

#include <vector>

#include "cloud/instance_type.h"
#include "common/time.h"
#include "latency/latency_model.h"
#include "latency/noise.h"

namespace kairos::serving {

/// Predictor configuration.
struct PredictorOptions {
  /// When true the predictor is seeded from the true latency surface
  /// (equivalent to a converged predictor; the usual bench setting). When
  /// false it learns purely online from Observe() calls.
  bool pretrained = true;

  /// Relative std-dev of multiplicative prediction noise (0 = exact,
  /// 0.05 reproduces Fig. 16b). The noise stream has a fixed seed.
  double noise_sigma = 0.0;
};

/// Learns and serves latency predictions per (type, batch).
class LatencyPredictor {
 public:
  LatencyPredictor(const cloud::Catalog& catalog,
                   const latency::LatencyModel& truth,
                   PredictorOptions options);

  /// Predicted serving latency in milliseconds. Non-const because the noise
  /// stream advances.
  double PredictMs(cloud::TypeId type, int batch);

  /// Predicted serving latency in simulator seconds.
  Time Predict(cloud::TypeId type, int batch) {
    return MsToSec(PredictMs(type, batch));
  }

  /// Noise-free prediction (used for the heterogeneity coefficients, which
  /// the paper computes once from the largest query's latency ratio).
  double PredictMsNoiseless(cloud::TypeId type, int batch) const;

  /// Noise-free predictions for a whole frontier of batch sizes in one
  /// call: out[i] = PredictMsNoiseless(type, batches[i]). The per-type
  /// state is resolved once, so a policy pricing every (query, type) pair
  /// of a round pays one call per type instead of one per pair.
  void PredictMsNoiselessBatch(cloud::TypeId type,
                               const std::vector<int>& batches,
                               std::vector<double>& out) const;

  /// True when predictions carry no noise (sigma <= 0): PredictMs never
  /// advances the RNG, so noiseless batched predictions are bit-identical
  /// to per-call PredictMs and policies may batch freely.
  bool IsDeterministic() const { return noise_.sigma() <= 0.0; }

  /// Records an observed (type, batch) -> latency_ms sample.
  void Observe(cloud::TypeId type, int batch, double latency_ms);

  /// True while the type still falls back to the online linear model for
  /// unseen batch sizes with fewer than two distinct observed batches.
  bool HasLinearFit(cloud::TypeId type) const;

  /// Number of observations recorded for a type.
  std::size_t ObservationCount(cloud::TypeId type) const;

 private:
  struct TypeState {
    // Lookup table indexed directly by batch size (domain is the fixed
    // [1, kMaxBatchSize]): mean latency and sample count per batch, with
    // count == 0 marking "never observed". Replaces an unordered_map that
    // showed up in EvaluateConfig profiles — the dense array is one
    // predictable load where the map was a hash + node chase.
    std::vector<double> mean_ms;        ///< [0, kMaxBatchSize], 0 unused
    std::vector<std::size_t> samples;   ///< parallel to mean_ms
    // Linear-regression accumulators over all observations.
    std::size_t n = 0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    int distinct_batches = 0;
  };

  double RawPredict(const TypeState& st, int batch) const;

  std::vector<TypeState> per_type_;
  latency::PredictionNoise noise_;
};

}  // namespace kairos::serving
