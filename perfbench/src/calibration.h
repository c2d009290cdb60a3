// Machine-speed calibration for the end-to-end times. The benchmark runs
// on shared machines whose speed drifts by tens of percent within seconds
// (other tenants on the same cores), which would swamp a 10% regression.
// While a pass runs, the workload times a small fixed reference
// computation (a "unit", ~0.3 ms, sharing no code with the library) at
// regular points of its own loop, on the driving thread, and leaves those
// samples out of its timings. The pass's times are then reported scaled
// by kNominalUnitS / (mean unit time during the pass): seconds of a
// machine on which the unit takes exactly kNominalUnitS. A slower
// library moves the scaled times as it moves the raw ones; a slower
// machine moves both the pass and the units and cancels. The raw times
// are printed beside them.
#pragma once

#include <cstddef>

namespace perfbench {

inline constexpr double kNominalUnitS = 300e-6;

/// Runs the reference unit once; returns its wall time in seconds.
double ReferenceUnitSeconds();

/// The reference units timed during one pass.
class SpeedSampler {
 public:
  /// Runs one unit now; returns its wall time so the caller can leave it
  /// out of its own timings.
  double Sample();

  /// kNominalUnitS / mean unit time; 1 before the first sample.
  double Scale() const;

 private:
  double total_s_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace perfbench
