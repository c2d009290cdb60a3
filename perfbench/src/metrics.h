// Turns passes and spans into the named metrics the benchmark prints:
// the end-to-end metrics of untraced passes and the per-layer metrics of
// traced ones. METRICS.md defines each metric and the end-to-end metric
// it should move.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "span_recorder.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Linear-interpolated percentile (0..100) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// The highest percentile, capped at `wanted`, that leaves at least ten
/// of `n` samples beyond it; 0 below ten samples.
double TailLevel(std::size_t n, double wanted);

/// The fastest observation of each part of a pass, over passes that all
/// did the same work: step k of each pass simulated (or evaluated) the
/// same thing, so another tenant's interference can only have added to
/// it. Times are scaled for machine speed (calibration.h).
struct FastestPass {
  /// Per step, the least time any pass took for it.
  std::vector<double> step_ms;
  /// The fastest steps plus the least time any pass spent outside its
  /// steps (engine builds, probes and ranking, the tail of a run).
  double wall_s = 0.0;
};

/// Combines passes with equal step counts (the caller checks).
FastestPass Fastest(const std::vector<PassResult>& passes);

/// End-to-end metrics of a workload's untraced passes, in BENCHMARK.json
/// order: pass_wall_s and step_ms_* from Fastest(passes), and the median
/// of `setup_s` multiplied by `setup_scale` (see calibration.h).
std::vector<Metric> EndToEndMetrics(const std::vector<PassResult>& passes,
                                    const std::vector<double>& setup_s,
                                    double setup_scale);

/// Per-layer metrics of `traced` passes, in BENCHMARK.json order.
/// `totals` sums the wrappers' observations over those passes;
/// `overhead` is traced wall over untraced wall.
std::vector<Metric> LayerMetrics(std::span<const Span> spans,
                                 const ObservationTotals& totals,
                                 const std::vector<PassResult>& traced,
                                 double overhead);

/// Adds `pass` into `into` (counts summed, eval times appended).
void Merge(const ObservationTotals& pass, ObservationTotals& into);

/// Starts a fresh peak-memory window: returns freed heap memory to the
/// system and resets the kernel's resident-set high-water mark. Returns
/// false when the mark cannot be reset; PeakRssMb() then covers the whole
/// process lifetime.
bool ResetPeakRss();

/// Peak resident set since the last ResetPeakRss() (or process start), MB.
double PeakRssMb();

/// Build type and compiler flags this binary was built with.
std::string BuildInfo();

}  // namespace perfbench
