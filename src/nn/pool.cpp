#include "nn/pool.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  HSDL_CHECK(window > 0);
}

std::string MaxPool2d::name() const {
  std::ostringstream os;
  os << "maxpool" << window_ << "x" << window_;
  return os.str();
}

std::vector<std::size_t> MaxPool2d::output_shape(
    const std::vector<std::size_t>& in) const {
  HSDL_CHECK(in.size() == 4);
  HSDL_CHECK_MSG(in[2] % window_ == 0 && in[3] % window_ == 0,
                 "pool window does not tile the input");
  return {in[0], in[1], in[2] / window_, in[3] / window_};
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  const auto out_shape = output_shape(in_shape_);
  const std::size_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
                    w = in_shape_[3];
  const std::size_t oh = out_shape[2], ow = out_shape[3];

  Tensor out(out_shape);
  argmax_.assign(out.numel(), 0);
  std::size_t oidx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* img = input.data() + (i * c + ch) * h * w;
      const std::size_t base = (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
          float best = img[(oy * window_) * w + ox * window_];
          std::size_t best_idx = (oy * window_) * w + ox * window_;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t idx =
                  (oy * window_ + dy) * w + ox * window_ + dx;
              if (img[idx] > best) {
                best = img[idx];
                best_idx = idx;
              }
            }
          }
          out[oidx] = best;
          argmax_[oidx] = base + best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::infer(const Tensor& input, WorkspaceArena& ws) const {
  const auto& shp = input.shape();
  const auto out_shape = output_shape(shp);
  const std::size_t n = shp[0], c = shp[1], h = shp[2], w = shp[3];
  const std::size_t oh = out_shape[2], ow = out_shape[3];

  Tensor out = ws.take(out_shape);
  std::size_t oidx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* img = input.data() + (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
          float best = img[(oy * window_) * w + ox * window_];
          for (std::size_t dy = 0; dy < window_; ++dy)
            for (std::size_t dx = 0; dx < window_; ++dx)
              best = std::max(
                  best, img[(oy * window_ + dy) * w + ox * window_ + dx]);
          out[oidx] = best;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  HSDL_CHECK_MSG(!in_shape_.empty(), "backward before forward");
  HSDL_CHECK(grad_output.numel() == argmax_.size());
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    grad_in[argmax_[i]] += grad_output[i];
  return grad_in;
}

}  // namespace hsdl::nn
