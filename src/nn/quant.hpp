// Post-training int8 quantized inference.
//
// Scheme (DESIGN.md §12):
//   * Weights: per-output-channel symmetric int8, sw[oc] = max|W[oc]|/127.
//   * Activations: per-tensor affine uint8 restricted to [0, 127],
//     q = clamp(round(x * 1/s) + zp, 0, 127) with round-to-nearest-even
//     (the x86 default, so the scalar std::lrintf path and the AVX2
//     _mm256_cvtps_epi32 path round identically). The range always
//     includes 0 so zero padding is exactly representable (pad value ==
//     zp). Post-ReLU tensors calibrate to zp = 0.
//   * Accumulation is int32 and therefore EXACT: products are at most
//     127*127 = 16129 and the network's largest reduction (the first FC,
//     288 terms) stays far below 2^31. Exact integer accumulation is
//     order-independent, so the AVX2 and scalar kernels are bitwise
//     identical by construction — no FMA/rounding caveats like fp32.
//   * Dequant epilogue per output: v = s_in*sw[oc]*(acc - zp_in*wsum[oc])
//     + bias[oc], optional fused ReLU, then requantize to the next op's
//     activation params. The final Linear keeps fp32 logits and applies
//     the shared softmax_row kernel.
//   * Saturation policy: activations outside the calibrated range at
//     serving time clamp (saturate) to [0, 127]; calibration must cover a
//     representative split (the detector calibrates on validation data).
//
// Scales are calibrated by replaying a calibration batch through the fp32
// network layer-by-layer and recording each tensor's min/max.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace hsdl::nn {

class Sequential;
class WorkspaceArena;

/// Per-tensor activation quantization parameters (uint8 in [0, 127]).
/// Quantization multiplies by the precomputed reciprocal `inv_scale`
/// rather than dividing, so keep the two fields consistent — construct
/// through calibrate_act().
struct ActQuant {
  float scale = 1.0f;
  float inv_scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Quantize one value with the given params (saturating).
std::uint8_t quantize_value(float x, const ActQuant& q);
/// Exact inverse map of the quantized grid point.
float dequantize_value(std::uint8_t v, const ActQuant& q);
/// Min/max-based calibration: picks the tightest [scale, zero_point]
/// covering [min(lo,0), max(hi,0)] on the 128-point grid.
ActQuant calibrate_act(float lo, float hi);

/// An int8 copy of a trained Sequential for serving. Supports the stack
/// HotspotCnn builds (Conv2d/Relu/MaxPool2d/Flatten/Dropout/Linear with a
/// Linear last); the constructor rejects anything else.
class QuantizedNet {
 public:
  /// `calibration` is a [N, ...] batch shaped like the net input; it is
  /// replayed through the fp32 net to calibrate activation scales.
  QuantizedNet(const Sequential& net, const Tensor& calibration);

  /// Softmax probabilities [N, classes] for a batch shaped like the
  /// calibration input. Thread-safe; parallel over samples. The output
  /// is drawn from `ws`; the int8 internals use thread-local scratch.
  Tensor probabilities(const Tensor& input, WorkspaceArena& ws) const;

  std::size_t num_quantized_layers() const;  ///< conv + linear count
  /// CRC-32 over every op's int8 weights, scales and bias and every
  /// activation's quantization params: two nets that could score a
  /// sample differently differ here (barring a CRC collision).
  std::uint32_t fingerprint() const;
  const std::vector<std::size_t>& input_shape() const { return in_shape_; }

 private:
  enum class OpKind { kConv, kPool, kLinear };

  struct Op {
    OpKind kind = OpKind::kConv;
    // conv/linear
    std::vector<std::int8_t> qweight;   // conv: [oc][ic*k*k]; fc: [out][in]
    std::vector<std::int32_t> wsum;     // per-oc sum of qweight
    std::vector<float> combined_scale;  // per-oc s_in * sw[oc]
    std::vector<float> bias;
    ActQuant in_q;
    ActQuant out_q;       // requant target (unused for the final linear)
    bool fuse_relu = false;
    bool fp32_out = false;  // final linear: keep fp32 logits
    // conv geometry
    std::size_t in_channels = 0, height = 0, width = 0;
    std::size_t out_channels = 0, kernel = 0, stride = 1, padding = 0;
    // pool geometry (in_channels/height/width reused)
    std::size_t window = 0;
    // linear geometry
    std::size_t in_features = 0, out_features = 0;
    // Stride-1 conv fast-path precompute (fixed once weights and geometry
    // are known; rebuilding these per window showed up in serving
    // profiles): per-tap offsets into the padded image, and the per-pair
    // packed (w0, w1) i16 words the pmaddwd kernel broadcasts.
    std::vector<std::size_t> tap_off;   // [ic*k*k]
    std::vector<std::int32_t> wpair;    // [oc][(ic*k*k + 1) / 2]
  };

  void run_sample(const float* in, float* probs_out) const;

  std::vector<Op> ops_;
  ActQuant input_q_;
  std::vector<std::size_t> in_shape_;  // per-sample, e.g. {C, H, W}
  std::size_t in_numel_ = 0;
  std::size_t classes_ = 0;
  std::size_t max_act_ = 0;  // largest activation buffer (u8 elements)
  std::size_t max_pad_ = 0;  // largest padded conv input buffer
};

}  // namespace hsdl::nn
