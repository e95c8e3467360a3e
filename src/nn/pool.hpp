// Max-pooling layer.
#pragma once

#include "nn/layer.hpp"

namespace hsdl::nn {

/// Non-overlapping max pooling (paper: 2x2, stride 2). Input spatial size
/// must be divisible by the window.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window = 2);

  std::string name() const override;
  Tensor forward(const Tensor& input, bool train) override;
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  std::vector<std::size_t> in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

}  // namespace hsdl::nn
