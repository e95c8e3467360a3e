// Element-wise activation layers.
#pragma once

#include "nn/layer.hpp"

namespace hsdl::nn {

/// ReLU (paper Equation (5)): max(0, x). The biased-learning proof
/// (Theorem 1) relies on the non-negativity of the penultimate ReLU output.
class Relu final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override {
    return input_shape;
  }

 private:
  Tensor mask_;  // 1 where input > 0
};

/// Sigmoid — kept for baseline experiments contrasting with ReLU.
class Sigmoid final : public Layer {
 public:
  std::string name() const override { return "sigmoid"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override {
    return input_shape;
  }

 private:
  Tensor output_;  // cached activation
};

}  // namespace hsdl::nn
