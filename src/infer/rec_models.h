// Miniature versions of the five Table-3 recommendation models, built from
// real embedding gathers and MLP towers. Their purpose in this repo is
// evidential: executing them shows that (a) latency grows affinely with
// batch size (Pearson > 0.99, the Sec. 5.1 observation every Kairos
// decision rests on) and (b) the relative CPU cost structure assumed by the
// latency zoo (embedding-heavy RM2 vs. compute-heavy MT-WND) is real.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "infer/net.h"
#include "infer/ops.h"

namespace kairos::infer {

/// A runnable recommendation model instance.
class RecModel {
 public:
  virtual ~RecModel() = default;
  virtual std::string Name() const = 0;

  /// Runs one query of `batch` samples; returns per-sample scores. Inputs
  /// are generated deterministically from `seed` (content is irrelevant to
  /// latency; recommendation inference is data-independent).
  virtual Tensor Infer(std::size_t batch, ThreadPool& pool,
                       std::uint64_t seed = 0) const = 0;
};

/// Builds a miniature model by Table-3 name (NCF, RM2, WND, MT-WND, DIEN).
/// Throws std::out_of_range for unknown names.
std::unique_ptr<RecModel> BuildRecModel(const std::string& name);

/// Measures wall-clock latency (ms) of one inference at each batch size.
/// `repeats` > 1 returns the minimum (noise floor) per batch.
std::vector<double> MeasureLatencyMs(const RecModel& model,
                                     const std::vector<std::size_t>& batches,
                                     ThreadPool& pool, int repeats = 3);

}  // namespace kairos::infer
