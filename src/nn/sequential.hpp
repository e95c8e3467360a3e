// Sequential container: a feed-forward stack of layers.
#pragma once

#include <memory>
#include <utility>

#include "nn/layer.hpp"

namespace hsdl::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference for further wiring.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void append(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  std::string name() const override { return "sequential"; }
  Tensor forward(const Tensor& input, bool train) override;
  /// Intermediates are recycled back into `ws` as each layer consumes
  /// them, so a warm arena serves the whole chain with zero heap
  /// allocations. The caller owns `input`; the returned tensor is
  /// arena-pooled (recycle it when done). Runs the fused serving walk
  /// (infer_prefix over every layer) unless reference mode is on.
  Tensor infer(const Tensor& input, WorkspaceArena& ws) const override;
  /// Runs only layers [0, n_layers) with the fused serving walk. The
  /// fused FC+softmax path (HotspotCnn) uses this to stop just before
  /// the final Linear and apply Linear::infer_softmax itself.
  Tensor infer_prefix(const Tensor& input, std::size_t n_layers,
                      WorkspaceArena& ws) const;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Per-layer "name : output shape" summary for a given input shape.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> summary(
      const std::vector<std::size_t>& input_shape) const;

  /// Total learnable parameter count.
  std::size_t param_count();

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace hsdl::nn
