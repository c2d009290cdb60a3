#include "infer/ops.h"

#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace kairos::infer {

void Gemm(const Tensor& x, const Tensor& w, Tensor& out, ThreadPool& pool) {
  if (x.cols() != w.rows() || out.rows() != x.rows() ||
      out.cols() != w.cols()) {
    throw std::invalid_argument("Gemm: dimension mismatch");
  }
  const std::size_t in = x.cols();
  const std::size_t width = w.cols();
  ParallelFor(pool, x.rows(), [&](std::size_t r) {
    float* out_row = out.row(r);
    for (std::size_t c = 0; c < width; ++c) out_row[c] = 0.0f;
    const float* x_row = x.row(r);
    for (std::size_t k = 0; k < in; ++k) {
      const float xv = x_row[k];
      if (xv == 0.0f) continue;
      const float* w_row = w.row(k);
      for (std::size_t c = 0; c < width; ++c) out_row[c] += xv * w_row[c];
    }
  });
}

void AddBiasActivate(Tensor& out, const std::vector<float>& bias,
                     Activation act) {
  if (bias.size() != out.cols()) {
    throw std::invalid_argument("AddBiasActivate: bias width mismatch");
  }
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    for (std::size_t c = 0; c < out.cols(); ++c) {
      float v = row[c] + bias[c];
      switch (act) {
        case Activation::kNone:
          break;
        case Activation::kRelu:
          v = v > 0.0f ? v : 0.0f;
          break;
        case Activation::kSigmoid:
          v = 1.0f / (1.0f + std::exp(-v));
          break;
      }
      row[c] = v;
    }
  }
}

EmbeddingTable::EmbeddingTable(std::size_t rows, std::size_t dim,
                               std::uint64_t seed)
    : table_(rows, dim) {
  Rng rng(seed);
  for (float& v : table_.data()) {
    v = static_cast<float>(rng.Normal(0.0, 0.1));
  }
}

void EmbeddingTable::GatherPooled(const std::vector<std::uint32_t>& indices,
                                  std::size_t lookups_per_sample, Tensor& out,
                                  ThreadPool& pool) const {
  if (out.cols() != dim() ||
      indices.size() != out.rows() * lookups_per_sample) {
    throw std::invalid_argument("GatherPooled: shape mismatch");
  }
  ParallelFor(pool, out.rows(), [&](std::size_t r) {
    float* out_row = out.row(r);
    for (std::size_t c = 0; c < dim(); ++c) out_row[c] = 0.0f;
    for (std::size_t l = 0; l < lookups_per_sample; ++l) {
      const std::uint32_t idx =
          indices[r * lookups_per_sample + l] % static_cast<std::uint32_t>(rows());
      const float* src = table_.row(idx);
      for (std::size_t c = 0; c < dim(); ++c) out_row[c] += src[c];
    }
  });
}

void ConcatColumns(const std::vector<const Tensor*>& parts, Tensor& out) {
  if (parts.empty()) throw std::invalid_argument("ConcatColumns: no parts");
  std::size_t total = 0;
  for (const Tensor* p : parts) {
    if (p->rows() != out.rows()) {
      throw std::invalid_argument("ConcatColumns: row mismatch");
    }
    total += p->cols();
  }
  if (total != out.cols()) {
    throw std::invalid_argument("ConcatColumns: column mismatch");
  }
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float* dst = out.row(r);
    for (const Tensor* p : parts) {
      const float* src = p->row(r);
      for (std::size_t c = 0; c < p->cols(); ++c) *dst++ = src[c];
    }
  }
}

}  // namespace kairos::infer
