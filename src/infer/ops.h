// Compute kernels for the miniature inference engine: GEMM, bias +
// activation, embedding gather, and feature interaction — the operator set
// recommendation models are built from (Gupta et al., HPCA'20).
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "infer/tensor.h"

namespace kairos::infer {

/// out = x * w  (x: [batch, in], w: [in, out_features]); rows of `x` are
/// parallelized over the pool. The paper's CPU serving uses all cores of an
/// instance for one query at a time (Sec. 6); ParallelFor over batch rows is
/// that execution model. Rows are independent, so the output does not
/// depend on the pool's thread count.
void Gemm(const Tensor& x, const Tensor& w, Tensor& out, ThreadPool& pool);

/// Activation functions for MLP layers.
enum class Activation { kNone, kRelu, kSigmoid };

/// In-place out[r][c] = act(out[r][c] + bias[c]).
void AddBiasActivate(Tensor& out, const std::vector<float>& bias,
                     Activation act);

/// Embedding table: rows of dense vectors gathered (and pooled) by index.
class EmbeddingTable {
 public:
  /// Deterministically pseudo-random contents from `seed`.
  EmbeddingTable(std::size_t rows, std::size_t dim, std::uint64_t seed);

  std::size_t rows() const { return table_.rows(); }
  std::size_t dim() const { return table_.cols(); }

  /// Sum-pools `lookups_per_sample` gathered rows into out[sample]; indices
  /// are consumed per sample (size = batch * lookups_per_sample).
  void GatherPooled(const std::vector<std::uint32_t>& indices,
                    std::size_t lookups_per_sample, Tensor& out,
                    ThreadPool& pool) const;

 private:
  Tensor table_;
};

/// Concatenates feature tensors along columns into `out`.
void ConcatColumns(const std::vector<const Tensor*>& parts, Tensor& out);

}  // namespace kairos::infer
