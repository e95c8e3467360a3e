// Layer interface for the feed-forward / back-propagation engine.
//
// Layers are stateful: forward() caches whatever backward() needs (inputs,
// masks, argmax indices), and backward() accumulates parameter gradients
// into Param::grad. A training step is:
//   seq.zero_grad(); y = seq.forward(x, /*train=*/true);
//   loss.forward(y, targets); seq.backward(loss.backward());
//   optimizer.step(seq.params());
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace hsdl::nn {

class WorkspaceArena;

/// A learnable parameter and its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string param_name, Tensor init)
      : name(std::move(param_name)),
        value(std::move(init)),
        grad(value.shape()) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer name (used by summaries and serialization).
  virtual std::string name() const = 0;

  /// Computes outputs; `train` enables training-only behaviour (dropout).
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Inference-only forward pass: same outputs as forward(input, false)
  /// but touches no layer state, so one model can serve many threads
  /// concurrently (parallel evaluation, full-chip scanning). The output
  /// tensor and any internal scratch are drawn from `ws` instead of the
  /// heap, so a warm arena serves repeated batches with zero
  /// allocations; the returned tensor belongs to the arena's pool
  /// discipline — callers recycle() it when done. backward() must not be
  /// called after infer().
  virtual Tensor infer(const Tensor& input, WorkspaceArena& ws) const = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after a forward() on the same input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Output shape for a given input shape (excluding batch handling —
  /// shapes include the batch axis and pass through unchanged).
  virtual std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const = 0;

  void zero_grad() {
    for (Param* p : params()) p->grad.zero();
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace hsdl::nn
