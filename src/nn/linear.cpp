#include "nn/linear.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/refmode.hpp"
#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {
namespace {

Tensor make_linear_weight(std::size_t in, std::size_t out, Rng& rng) {
  Tensor w({out, in});
  he_normal_init(w, in, rng);
  return w;
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("weight", make_linear_weight(in_features, out_features, rng)),
      bias_("bias", Tensor({out_features})) {
  HSDL_CHECK(in_features > 0 && out_features > 0);
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "fc(" << in_ << "->" << out_ << ")";
  return os.str();
}

std::vector<std::size_t> Linear::output_shape(
    const std::vector<std::size_t>& in) const {
  HSDL_CHECK(in.size() == 2 && in[1] == in_);
  return {in[0], out_};
}

Tensor Linear::forward(const Tensor& input, bool /*train*/) {
  input_ = input;
  Tensor out({input.extent(0), out_});
  matmul_epilogue(input, Epilogue::kNone, out);
  return out;
}

void Linear::matmul_epilogue(const Tensor& input, Epilogue epi,
                             Tensor& out) const {
  HSDL_CHECK_MSG(input.dim() == 2 && input.extent(1) == in_,
                 "linear expects [N," << in_ << "], got "
                                      << input.shape_str());
  const std::size_t n = input.extent(0);
  // out = x [n x in] * W^T [in x out]. Serving pins the naive kernel:
  // each output row is an independent ascending-k reduction, so the
  // result is identical for every batch size and the engine's batched
  // forward stays bitwise equal to the per-clip path. (The blocked GEMM
  // flips to an FMA microkernel once batch * out * in crosses its flop
  // cutoff, which rounds differently.) The FC layers are a rounding
  // error of serving time next to the convs, so nothing is lost.
  // Reference mode keeps the historical cutoff dispatch.
  if (runtime::reference_mode()) {
    gemm(false, true, n, out_, in_, 1.0f, input.data(), in_,
         weight_.value.data(), in_, 0.0f, out.data(), out_);
  } else {
    gemm_naive(false, true, n, out_, in_, 1.0f, input.data(), in_,
               weight_.value.data(), in_, 0.0f, out.data(), out_);
  }
  // Fused epilogues run the same arithmetic the separate Relu / softmax
  // layers would — the only thing saved is the intermediate tensor.
  switch (epi) {
    case Epilogue::kNone:
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < out_; ++j) out.at(i, j) += bias_.value[j];
      break;
    case Epilogue::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < out_; ++j) {
          const float v = out.at(i, j) + bias_.value[j];
          out.at(i, j) = v > 0.0f ? v : 0.0f;
        }
      }
      break;
    case Epilogue::kSoftmax:
      for (std::size_t i = 0; i < n; ++i) {
        float* row = out.data() + i * out_;
        for (std::size_t j = 0; j < out_; ++j) row[j] += bias_.value[j];
        softmax_row(row, out_, row);
      }
      break;
  }
}

Tensor Linear::infer(const Tensor& input, WorkspaceArena& ws) const {
  Tensor out = ws.take({input.extent(0), out_});
  matmul_epilogue(input, Epilogue::kNone, out);
  return out;
}

Tensor Linear::infer_relu(const Tensor& input, WorkspaceArena& ws) const {
  Tensor out = ws.take({input.extent(0), out_});
  matmul_epilogue(input, Epilogue::kRelu, out);
  return out;
}

Tensor Linear::infer_softmax(const Tensor& input, WorkspaceArena& ws) const {
  Tensor out = ws.take({input.extent(0), out_});
  matmul_epilogue(input, Epilogue::kSoftmax, out);
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  HSDL_CHECK_MSG(!input_.empty(), "backward before forward");
  const std::size_t n = input_.extent(0);
  HSDL_CHECK(grad_output.shape() == std::vector<std::size_t>({n, out_}));

  // dW += gout^T [out x n] * x [n x in]
  gemm(true, false, out_, in_, n, 1.0f, grad_output.data(), out_,
       input_.data(), in_, 1.0f, weight_.grad.data(), in_);
  // db += column sums of gout
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < out_; ++j)
      bias_.grad[j] += grad_output.at(i, j);
  // dx = gout [n x out] * W [out x in]
  Tensor grad_in({n, in_});
  gemm(false, false, n, in_, out_, 1.0f, grad_output.data(), out_,
       weight_.value.data(), in_, 0.0f, grad_in.data(), in_);
  return grad_in;
}

}  // namespace hsdl::nn
