#include "nn/sequential.hpp"

#include "common/check.hpp"
#include "common/refmode.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {

Tensor Sequential::forward(const Tensor& input, bool train) {
  HSDL_CHECK_MSG(!layers_.empty(), "empty sequential");
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(x, train);
  return x;
}

// Serving walk with peephole fusion. Every rewrite below preserves the
// per-layer arithmetic bitwise — only intermediate materialization is
// elided:
//   * Conv2d + Relu  -> Conv2d::infer_relu (ReLU inside the bias pass)
//   * Linear + Relu  -> Linear::infer_relu
//   * Dropout        -> skipped (identity at inference; the plain walk
//                       still pays a full tensor copy)
//   * Flatten        -> in-place reshape, stealing the owned buffer
//                       instead of copying it
// Reference mode (common/refmode.hpp) bypasses this in infer() and runs
// the original one-layer-at-a-time loop.
Tensor Sequential::infer_prefix(const Tensor& input, std::size_t n_layers,
                                WorkspaceArena& ws) const {
  HSDL_CHECK_MSG(n_layers >= 1 && n_layers <= layers_.size(),
                 "bad layer prefix length");
  Tensor x;
  bool owned = false;  // x holds the current activation
  const Tensor* cur = &input;
  for (std::size_t i = 0; i < n_layers; ++i) {
    Layer* l = layers_[i].get();
    if (dynamic_cast<const Dropout*>(l) != nullptr) continue;
    if (dynamic_cast<const Flatten*>(l) != nullptr && owned) {
      x = Tensor::from_data(l->output_shape(x.shape()), std::move(x.vec()));
      continue;
    }
    const bool next_relu =
        i + 1 < n_layers &&
        dynamic_cast<const Relu*>(layers_[i + 1].get()) != nullptr;
    Tensor y;
    if (const auto* conv = dynamic_cast<const Conv2d*>(l);
        conv != nullptr && next_relu) {
      y = conv->infer_relu(*cur, ws);
      ++i;
    } else if (const auto* lin = dynamic_cast<const Linear*>(l);
               lin != nullptr && next_relu) {
      y = lin->infer_relu(*cur, ws);
      ++i;
    } else {
      y = l->infer(*cur, ws);
    }
    if (owned) ws.recycle(std::move(x));
    x = std::move(y);
    owned = true;
    cur = &x;
  }
  if (!owned) return input;  // prefix was all pass-throughs
  return x;
}

Tensor Sequential::infer(const Tensor& input, WorkspaceArena& ws) const {
  HSDL_CHECK_MSG(!layers_.empty(), "empty sequential");
  if (!runtime::reference_mode())
    return infer_prefix(input, layers_.size(), ws);
  Tensor x = layers_.front()->infer(input, ws);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    Tensor y = layers_[i]->infer(x, ws);
    ws.recycle(std::move(x));
    x = std::move(y);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  HSDL_CHECK_MSG(!layers_.empty(), "empty sequential");
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_)
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

std::vector<std::size_t> Sequential::output_shape(
    const std::vector<std::size_t>& input_shape) const {
  std::vector<std::size_t> s = input_shape;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

std::vector<std::pair<std::string, std::vector<std::size_t>>>
Sequential::summary(const std::vector<std::size_t>& input_shape) const {
  std::vector<std::pair<std::string, std::vector<std::size_t>>> out;
  std::vector<std::size_t> s = input_shape;
  for (const auto& l : layers_) {
    s = l->output_shape(s);
    out.emplace_back(l->name(), s);
  }
  return out;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

}  // namespace hsdl::nn
