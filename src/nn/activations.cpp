#include "nn/activations.hpp"

#include <cmath>

#include "common/check.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {

Tensor Relu::forward(const Tensor& input, bool /*train*/) {
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool pos = input[i] > 0.0f;
    mask_[i] = pos ? 1.0f : 0.0f;
    out[i] = pos ? input[i] : 0.0f;
  }
  return out;
}

Tensor Relu::infer(const Tensor& input, WorkspaceArena& ws) const {
  Tensor out = ws.take(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i)
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
  HSDL_CHECK_MSG(same_shape(grad_output, mask_), "backward before forward");
  Tensor grad_in(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    grad_in[i] = grad_output[i] * mask_[i];
  return grad_in;
}

Tensor Sigmoid::forward(const Tensor& input, bool /*train*/) {
  output_ = Tensor(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i)
    output_[i] =
        static_cast<float>(1.0 / (1.0 + std::exp(-static_cast<double>(
                                            input[i]))));
  return output_;
}

Tensor Sigmoid::infer(const Tensor& input, WorkspaceArena& ws) const {
  Tensor out = ws.take(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i)
    out[i] =
        static_cast<float>(1.0 / (1.0 + std::exp(-static_cast<double>(
                                            input[i]))));
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  HSDL_CHECK_MSG(same_shape(grad_output, output_), "backward before forward");
  Tensor grad_in(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    grad_in[i] = grad_output[i] * output_[i] * (1.0f - output_[i]);
  return grad_in;
}

}  // namespace hsdl::nn
