// Inverted dropout layer.
//
// During training each activation is zeroed with probability p and the
// survivors are scaled by 1/(1-p), so inference is a plain pass-through
// (the paper applies 50 % dropout on the first FC layer).
#pragma once

#include "nn/layer.hpp"

namespace hsdl::nn {

class Dropout final : public Layer {
 public:
  /// `rng` must outlive the layer (typically the model's generator).
  Dropout(double p, Rng& rng);

  std::string name() const override;
  Tensor forward(const Tensor& input, bool train) override;
  /// Inverted dropout is a pass-through at inference (a copy).
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override {
    return input_shape;
  }

  double p() const { return p_; }

 private:
  double p_;
  Rng* rng_;
  Tensor mask_;  // scale factor per element used in the last forward
};

}  // namespace hsdl::nn
