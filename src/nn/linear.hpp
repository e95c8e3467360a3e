// Fully connected (dense) layer.
#pragma once

#include "nn/layer.hpp"

namespace hsdl::nn {

/// y = x W^T + b with x: [N, in], W: [out, in], b: [out].
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  std::string name() const override;
  Tensor forward(const Tensor& input, bool train) override;
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  /// Fused y = relu(x W^T + b): same GEMM as infer(), with the bias add
  /// and ReLU predicate applied in one pass over the output instead of
  /// materializing the pre-activation. Bitwise identical to
  /// infer() followed by Relu::infer().
  Tensor infer_relu(const Tensor& input, WorkspaceArena& ws) const;

  /// Fused y = softmax(x W^T + b) per row, via the shared softmax_row
  /// kernel. Bitwise identical to infer() followed by softmax().
  Tensor infer_softmax(const Tensor& input, WorkspaceArena& ws) const;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

 private:
  enum class Epilogue { kNone, kRelu, kSoftmax };
  void matmul_epilogue(const Tensor& input, Epilogue epi, Tensor& out) const;

  std::size_t in_;
  std::size_t out_;
  Param weight_;
  Param bias_;
  Tensor input_;
};

}  // namespace hsdl::nn
