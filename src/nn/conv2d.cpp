#include "nn/conv2d.hpp"

#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/refmode.hpp"
#include "common/trace.hpp"
#include "nn/conv_direct.hpp"
#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {
namespace {

Tensor make_conv_weight(const Conv2dConfig& c, Rng& rng) {
  Tensor w({c.out_channels, c.in_channels * c.kernel * c.kernel});
  he_normal_init(w, c.in_channels * c.kernel * c.kernel, rng);
  return w;
}

/// Multiply-add FLOP count of one batched conv pass (the im2col GEMM).
/// Observability only; see gemm.cpp for the determinism argument.
void count_conv_flops(std::size_t n, std::size_t out_channels,
                      std::size_t kk, std::size_t ocols,
                      std::size_t passes) {
  if (!metrics::enabled()) return;
  static metrics::Counter& flops = metrics::counter("conv2d.flops");
  static metrics::Counter& samples = metrics::counter("conv2d.samples");
  flops.add(passes * 2 * static_cast<std::uint64_t>(n) * out_channels * kk *
            ocols);
  samples.add(n);
}

}  // namespace

void im2col(const float* in, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* out) {
  const std::size_t oh = (height + 2 * padding - kernel) / stride + 1;
  const std::size_t ow = (width + 2 * padding - kernel) / stride + 1;
  const std::size_t ocols = oh * ow;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* img = in + c * height * width;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        float* orow = out + ((c * kernel + ky) * kernel + kx) * ocols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const long long iy = static_cast<long long>(oy * stride + ky) -
                               static_cast<long long>(padding);
          if (iy < 0 || iy >= static_cast<long long>(height)) {
            for (std::size_t ox = 0; ox < ow; ++ox) orow[oy * ow + ox] = 0.0f;
            continue;
          }
          const float* irow = img + static_cast<std::size_t>(iy) * width;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long long ix = static_cast<long long>(ox * stride + kx) -
                                 static_cast<long long>(padding);
            orow[oy * ow + ox] =
                (ix < 0 || ix >= static_cast<long long>(width))
                    ? 0.0f
                    : irow[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* out) {
  const std::size_t oh = (height + 2 * padding - kernel) / stride + 1;
  const std::size_t ow = (width + 2 * padding - kernel) / stride + 1;
  const std::size_t ocols = oh * ow;
  for (std::size_t c = 0; c < channels; ++c) {
    float* img = out + c * height * width;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const float* crow = cols + ((c * kernel + ky) * kernel + kx) * ocols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const long long iy = static_cast<long long>(oy * stride + ky) -
                               static_cast<long long>(padding);
          if (iy < 0 || iy >= static_cast<long long>(height)) continue;
          float* irow = img + static_cast<std::size_t>(iy) * width;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long long ix = static_cast<long long>(ox * stride + kx) -
                                 static_cast<long long>(padding);
            if (ix < 0 || ix >= static_cast<long long>(width)) continue;
            irow[static_cast<std::size_t>(ix)] += crow[oy * ow + ox];
          }
        }
      }
    }
  }
}

Conv2d::Conv2d(const Conv2dConfig& config, Rng& rng)
    : config_(config),
      weight_("weight", make_conv_weight(config, rng)),
      bias_("bias", Tensor({config.out_channels})) {
  HSDL_CHECK(config.in_channels > 0 && config.out_channels > 0);
  HSDL_CHECK(config.kernel > 0 && config.stride > 0);
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "conv" << config_.kernel << "x" << config_.kernel << "("
     << config_.in_channels << "->" << config_.out_channels << ")";
  return os.str();
}

std::size_t Conv2d::out_extent(std::size_t in_extent) const {
  HSDL_CHECK_MSG(in_extent + 2 * config_.padding >= config_.kernel,
                 "input smaller than kernel");
  return (in_extent + 2 * config_.padding - config_.kernel) / config_.stride +
         1;
}

std::vector<std::size_t> Conv2d::output_shape(
    const std::vector<std::size_t>& in) const {
  HSDL_CHECK(in.size() == 4 && in[1] == config_.in_channels);
  return {in[0], config_.out_channels, out_extent(in[2]), out_extent(in[3])};
}

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  const auto& shp = input.shape();
  HSDL_CHECK_MSG(shp.size() == 4 && shp[1] == config_.in_channels,
                 "conv2d expects [N," << config_.in_channels
                                      << ",H,W], got " << input.shape_str());
  input_ = input;
  const std::size_t n = shp[0], h = shp[2], w = shp[3];
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  const std::size_t kk =
      config_.in_channels * config_.kernel * config_.kernel;
  const std::size_t ocols = oh * ow;

  HSDL_TRACE_SPAN("conv2d.forward");
  count_conv_flops(n, config_.out_channels, kk, ocols, /*passes=*/1);
  cols_ = Tensor({n, kk, ocols});
  Tensor out({n, config_.out_channels, oh, ow});
  // Samples are independent: each writes only its own cols_/out slices.
  hsdl::parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      float* col = cols_.data() + i * kk * ocols;
      im2col(input.data() + i * config_.in_channels * h * w,
             config_.in_channels, h, w, config_.kernel, config_.stride,
             config_.padding, col);
      // out_i = W [out_c x kk] * col [kk x ocols]
      float* out_i = out.data() + i * config_.out_channels * ocols;
      matmul(config_.out_channels, ocols, kk, weight_.value.data(), col,
             out_i);
      for (std::size_t oc = 0; oc < config_.out_channels; ++oc) {
        const float bv = bias_.value[oc];
        float* orow = out_i + oc * ocols;
        for (std::size_t j = 0; j < ocols; ++j) orow[j] += bv;
      }
    }
  });
  return out;
}

Tensor Conv2d::direct_infer(const Tensor& input, WorkspaceArena& ws,
                            bool fuse_relu) const {
  const auto& shp = input.shape();
  HSDL_CHECK_MSG(shp.size() == 4 && shp[1] == config_.in_channels,
                 "conv2d expects [N," << config_.in_channels
                                      << ",H,W], got " << input.shape_str());
  const std::size_t n = shp[0], h = shp[2], w = shp[3];
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  const std::size_t kk =
      config_.in_channels * config_.kernel * config_.kernel;

  HSDL_TRACE_SPAN("conv2d.infer");
  // Same multiply-add count as the im2col GEMM (the stride-1 kernel
  // skips no zero weight; the strided body does); keep the counter
  // comparable across paths.
  count_conv_flops(n, config_.out_channels, kk, oh * ow, /*passes=*/1);
  const ConvDirectShape ds{config_.in_channels, h,
                           w,                   config_.out_channels,
                           config_.kernel,      config_.stride,
                           config_.padding};
  Tensor out = ws.take({n, config_.out_channels, oh, ow});
  hsdl::parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      conv2d_direct(input.data() + i * config_.in_channels * h * w,
                    weight_.value.data(), bias_.value.data(), ds, fuse_relu,
                    out.data() + i * config_.out_channels * oh * ow);
    }
  });
  return out;
}

Tensor Conv2d::infer_relu(const Tensor& input, WorkspaceArena& ws) const {
  return direct_infer(input, ws, /*fuse_relu=*/true);
}

Tensor Conv2d::infer(const Tensor& input, WorkspaceArena& ws) const {
  if (!runtime::reference_mode())
    return direct_infer(input, ws, /*fuse_relu=*/false);
  const auto& shp = input.shape();
  HSDL_CHECK_MSG(shp.size() == 4 && shp[1] == config_.in_channels,
                 "conv2d expects [N," << config_.in_channels
                                      << ",H,W], got " << input.shape_str());
  const std::size_t n = shp[0], h = shp[2], w = shp[3];
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  const std::size_t kk =
      config_.in_channels * config_.kernel * config_.kernel;
  const std::size_t ocols = oh * ow;

  HSDL_TRACE_SPAN("conv2d.infer");
  count_conv_flops(n, config_.out_channels, kk, ocols, /*passes=*/1);
  Tensor out = ws.take({n, config_.out_channels, oh, ow});
  // One im2col slab for the whole batch (disjoint per-sample slices) so
  // the parallel workers never touch the arena.
  ScratchScope scope(ws);
  const std::span<float> cols = ws.scratch(n * kk * ocols);
  hsdl::parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      float* col = cols.data() + i * kk * ocols;
      im2col(input.data() + i * config_.in_channels * h * w,
             config_.in_channels, h, w, config_.kernel, config_.stride,
             config_.padding, col);
      float* out_i = out.data() + i * config_.out_channels * ocols;
      matmul(config_.out_channels, ocols, kk, weight_.value.data(), col,
             out_i);
      for (std::size_t oc = 0; oc < config_.out_channels; ++oc) {
        const float bv = bias_.value[oc];
        float* orow = out_i + oc * ocols;
        for (std::size_t j = 0; j < ocols; ++j) orow[j] += bv;
      }
    }
  });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const auto& in_shape = input_.shape();
  HSDL_CHECK_MSG(!input_.empty(), "backward before forward");
  const std::size_t n = in_shape[0], h = in_shape[2], w = in_shape[3];
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  const std::size_t ocols = oh * ow;
  const std::size_t kk =
      config_.in_channels * config_.kernel * config_.kernel;
  HSDL_CHECK(grad_output.shape() ==
             std::vector<std::size_t>({n, config_.out_channels, oh, ow}));

  HSDL_TRACE_SPAN("conv2d.backward");
  // Backward runs two GEMMs per sample (dW and dcol).
  count_conv_flops(n, config_.out_channels, kk, ocols, /*passes=*/2);
  Tensor grad_in({n, config_.in_channels, h, w});
  // Per-sample weight/bias gradient partials: samples run in parallel,
  // then the partials are reduced in fixed sample order on this thread —
  // the reduction order never depends on the thread count, keeping
  // results bitwise deterministic.
  const std::size_t wsz = config_.out_channels * kk;
  std::vector<float> dw_partial(n * wsz);
  std::vector<float> db_partial(n * config_.out_channels);
  hsdl::parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    std::vector<float> dcol(kk * ocols);  // per-chunk scratch
    for (std::size_t i = b; i < e; ++i) {
      const float* gout =
          grad_output.data() + i * config_.out_channels * ocols;
      const float* col = cols_.data() + i * kk * ocols;
      // dW_i = gout [out_c x ocols] * col^T [ocols x kk]
      gemm(false, true, config_.out_channels, kk, ocols, 1.0f, gout, ocols,
           col, ocols, 0.0f, dw_partial.data() + i * wsz, kk);
      // db_i = row sums of gout
      for (std::size_t oc = 0; oc < config_.out_channels; ++oc) {
        float acc = 0.0f;
        const float* grow = gout + oc * ocols;
        for (std::size_t j = 0; j < ocols; ++j) acc += grow[j];
        db_partial[i * config_.out_channels + oc] = acc;
      }
      // dcol = W^T [kk x out_c] * gout [out_c x ocols]
      gemm(true, false, kk, ocols, config_.out_channels, 1.0f,
           weight_.value.data(), kk, gout, ocols, 0.0f, dcol.data(), ocols);
      col2im(dcol.data(), config_.in_channels, h, w, config_.kernel,
             config_.stride, config_.padding,
             grad_in.data() + i * config_.in_channels * h * w);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    const float* dw = dw_partial.data() + i * wsz;
    for (std::size_t j = 0; j < wsz; ++j) weight_.grad[j] += dw[j];
    const float* db = db_partial.data() + i * config_.out_channels;
    for (std::size_t oc = 0; oc < config_.out_channels; ++oc)
      bias_.grad[oc] += db[oc];
  }
  return grad_in;
}

}  // namespace hsdl::nn
