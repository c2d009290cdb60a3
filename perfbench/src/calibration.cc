#include "calibration.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <random>
#include <unordered_map>

namespace perfbench {
namespace {

/// Keeps the unit's result observable so it is not optimized away.
volatile double g_sink = 0.0;

}  // namespace

double ReferenceUnitSeconds() {
  // A mix resembling the simulator's hot paths: a row-minimum scan over a
  // small cost matrix (the assignment solve), a sort, hash-map updates.
  constexpr int kRows = 64;
  constexpr int kCols = 48;
  const auto start = std::chrono::steady_clock::now();
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  double acc = 0.0;
  std::array<double, kRows * kCols> cost;
  std::array<double, kCols> price{};
  for (double& c : cost) c = uniform(rng);
  for (int iter = 0; iter < 8; ++iter) {
    for (int i = 0; i < kRows; ++i) {
      double best = 1e300;
      int best_j = 0;
      for (int j = 0; j < kCols; ++j) {
        const double c = cost[i * kCols + j] - price[j];
        if (c < best) {
          best = c;
          best_j = j;
        }
      }
      price[best_j] += 0.01 * best;
      acc += best;
    }
  }
  std::array<double, 2048> keys;
  for (double& k : keys) k = uniform(rng);
  std::sort(keys.begin(), keys.end());
  acc += keys[100];
  std::unordered_map<std::uint64_t, double> counts;
  for (int i = 0; i < 512; ++i) counts[rng() % 256] += 1.0;
  acc += static_cast<double>(counts.size());
  g_sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double SpeedSampler::Sample() {
  const double s = ReferenceUnitSeconds();
  total_s_ += s;
  ++samples_;
  return s;
}

double SpeedSampler::Scale() const {
  return samples_ == 0
             ? 1.0
             : kNominalUnitS * static_cast<double>(samples_) / total_s_;
}

}  // namespace perfbench
