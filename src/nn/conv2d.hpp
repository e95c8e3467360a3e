// 2-D convolution layer.
//
// Training (forward/backward) uses im2col + GEMM, which it needs anyway
// for the gradient GEMMs. Inference uses the direct kernels from
// nn/conv_direct.hpp — at stride 1 the FMA kernel, whose scalar and AVX2
// paths agree bitwise — unless reference mode is on (common/refmode.hpp),
// in which case it runs the original im2col + GEMM path. That path is
// the tolerance oracle: at stride 1 it multiplies and adds separately, so
// it (and training's forward, which runs it) matches infer() to float
// rounding, not bitwise.
//
// Implements Equation (4) of the paper: each output map is the sum over
// input channels of 2-D correlations with a kh x kw kernel, plus a bias.
// Zero padding keeps "same" spatial size when padding = kernel/2 (the
// paper's conv layers use 3x3 kernels, stride 1, same padding — Table 1
// output shapes only hold with same padding).
#pragma once

#include <cstddef>

#include "nn/layer.hpp"

namespace hsdl::nn {

struct Conv2dConfig {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 1;
};

class Conv2d final : public Layer {
 public:
  Conv2d(const Conv2dConfig& config, Rng& rng);

  std::string name() const override;
  Tensor forward(const Tensor& input, bool train) override;
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;

  /// Fused conv + ReLU (direct kernel, no im2col): bitwise identical to
  /// infer() followed by Relu::infer() outside reference mode — the ReLU
  /// predicate runs inside the bias epilogue instead of a second pass
  /// over a temporary.
  Tensor infer_relu(const Tensor& input, WorkspaceArena& ws) const;

  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  const Conv2dConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

 private:
  std::size_t out_extent(std::size_t in_extent) const;
  Tensor direct_infer(const Tensor& input, WorkspaceArena& ws,
                      bool fuse_relu) const;

  Conv2dConfig config_;
  Param weight_;  // [out_c, in_c * k * k]
  Param bias_;    // [out_c]
  Tensor input_;  // cached for backward
  Tensor cols_;   // cached im2col buffer [N][in_c*k*k][oh*ow]
};

/// im2col: expands input patches into columns.
/// in:  [C, H, W] single sample; out: [C*k*k, oh*ow] row-major.
void im2col(const float* in, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* out);

/// col2im: scatter-adds columns back into an image (inverse of im2col for
/// gradient computation). `out` must be pre-zeroed.
void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* out);

}  // namespace hsdl::nn
