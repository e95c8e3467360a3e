// Flatten layer: [N, C, H, W] -> [N, C*H*W].
#pragma once

#include "nn/layer.hpp"

namespace hsdl::nn {

class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace hsdl::nn
