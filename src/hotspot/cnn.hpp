// The paper's convolutional neural network (Table 1 / Figure 2).
//
// Two convolution stages on a k x n x n feature tensor:
//   conv1-1 3x3 (k->16), ReLU, conv1-2 3x3 (16->16), ReLU, maxpool 2x2
//   conv2-1 3x3 (16->32), ReLU, conv2-2 3x3 (32->32), ReLU, maxpool 2x2
// followed by FC-250 (ReLU, 50% dropout) and FC-2. With n = 12 the
// realized shapes match Table 1 exactly: 12x12x16 -> 6x6x16 -> 6x6x32 ->
// 3x3x32 -> 250 -> 2.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/dropout.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace hsdl::hotspot {

struct HotspotCnnConfig {
  std::size_t input_channels = 32;  ///< k, feature tensor coefficients
  std::size_t input_side = 12;      ///< n, blocks per side
  std::size_t stage1_maps = 16;
  std::size_t stage2_maps = 32;
  std::size_t fc_nodes = 250;
  double dropout = 0.5;
  std::uint64_t seed = 42;  ///< weight init + dropout stream
};

/// Output class indices, following the paper's label convention
/// y = [p(non-hotspot), p(hotspot)].
inline constexpr std::size_t kNonHotspotIndex = 0;
inline constexpr std::size_t kHotspotIndex = 1;

class HotspotCnn {
 public:
  explicit HotspotCnn(const HotspotCnnConfig& config = {});

  const HotspotCnnConfig& config() const { return config_; }

  /// Underlying layer stack (for the trainer / serialization).
  nn::Sequential& net() { return net_; }
  const nn::Sequential& net() const { return net_; }

  /// Input shape excluding batch: {k, n, n}.
  std::vector<std::size_t> input_shape() const;

  /// Forward pass returning logits [N, 2].
  nn::Tensor logits(const nn::Tensor& input, bool train);

  /// Inference pass returning softmax probabilities [N, 2]. Const and
  /// thread-safe: uses the stateless Layer::infer path, so one trained
  /// model can serve concurrent evaluation/scanning threads (one arena
  /// per thread). Every intermediate activation and the result are
  /// drawn from `ws`, so a warm arena serves repeated batches with zero
  /// heap allocations. The returned tensor should be recycle()d back
  /// into `ws` once consumed.
  nn::Tensor probabilities(const nn::Tensor& input,
                           nn::WorkspaceArena& ws) const;

  /// RNG used by dropout (exposed so training is reproducible end-to-end).
  Rng& rng() { return *rng_; }

 private:
  HotspotCnnConfig config_;
  std::unique_ptr<Rng> rng_;  // stable address for the dropout layer
  nn::Sequential net_;
};

}  // namespace hsdl::hotspot
