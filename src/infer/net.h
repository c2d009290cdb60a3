// MLP building block: a stack of dense layers with activations, the "tower"
// component shared by every recommendation model in the zoo.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "infer/ops.h"
#include "infer/tensor.h"

namespace kairos::infer {

/// One dense layer: y = act(x W + b).
class DenseLayer {
 public:
  /// Weights are deterministic pseudo-random from `seed`.
  DenseLayer(std::size_t in, std::size_t out, Activation act,
             std::uint64_t seed);

  std::size_t in_features() const { return weights_.rows(); }
  std::size_t out_features() const { return weights_.cols(); }

  /// Computes the layer into `out` (resized as needed).
  void Forward(const Tensor& x, Tensor& out, ThreadPool& pool) const;

 private:
  Tensor weights_;
  std::vector<float> bias_;
  Activation act_;
};

/// A feed-forward stack of dense layers.
class Mlp {
 public:
  /// `widths` = {in, h1, ..., out}; hidden layers ReLU, final layer `final`.
  Mlp(const std::vector<std::size_t>& widths, Activation final_act,
      std::uint64_t seed);

  std::size_t in_features() const;
  std::size_t out_features() const;

  /// Full forward pass; returns the final activation tensor.
  Tensor Forward(const Tensor& x, ThreadPool& pool) const;

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace kairos::infer
