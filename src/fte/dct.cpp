#include "fte/dct.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace hsdl::fte {

DctPlan::DctPlan(std::size_t block_size) : block_(block_size) {
  HSDL_CHECK(block_size > 0);
  const auto B = block_;
  basis_.resize(B * B);
  const double inv_b = 1.0 / static_cast<double>(B);
  for (std::size_t m = 0; m < B; ++m) {
    const double scale =
        m == 0 ? std::sqrt(inv_b) : std::sqrt(2.0 * inv_b);
    for (std::size_t x = 0; x < B; ++x) {
      basis_[m * B + x] = static_cast<float>(
          scale * std::cos(std::numbers::pi * inv_b *
                           (static_cast<double>(x) + 0.5) *
                           static_cast<double>(m)));
    }
  }
}

// out = C * in * C^T, evaluated as tmp = in * C^T (rows transformed),
// then out = C * tmp (columns transformed).
void DctPlan::forward(const float* in, float* out) const {
  partial(in, block_, out);
}

void DctPlan::partial(const float* in, std::size_t kp, float* out) const {
  HSDL_CHECK(kp > 0 && kp <= block_);
  const std::size_t B = block_;
  // Per-call scratch, so concurrent calls on one plan are safe.
  std::vector<float> scratch(kp * B);
  float* tmp = scratch.data();  // kp x B: rows = frequency m, cols = x
  // tmp[m][x] = sum_y C[m][y] * in[y][x]  (transform columns)
  for (std::size_t m = 0; m < kp; ++m) {
    const float* cm = &basis_[m * B];
    for (std::size_t x = 0; x < B; ++x) tmp[m * B + x] = 0.0f;
    for (std::size_t y = 0; y < B; ++y) {
      const float c = cm[y];
      const float* row = &in[y * B];
      float* trow = &tmp[m * B];
      for (std::size_t x = 0; x < B; ++x) trow[x] += c * row[x];
    }
  }
  // out[m][n] = sum_x tmp[m][x] * C[n][x]  (transform rows)
  for (std::size_t m = 0; m < kp; ++m) {
    const float* trow = &tmp[m * B];
    for (std::size_t n = 0; n < kp; ++n) {
      const float* cn = &basis_[n * B];
      float acc = 0.0f;
      for (std::size_t x = 0; x < B; ++x) acc += trow[x] * cn[x];
      out[m * kp + n] = acc;
    }
  }
}

void DctPlan::inverse(const float* in, float* out) const {
  inverse_partial(in, block_, out);
}

void DctPlan::inverse_partial(const float* in, std::size_t kp,
                              float* out) const {
  HSDL_CHECK(kp > 0 && kp <= block_);
  const std::size_t B = block_;
  std::vector<float> scratch(kp * B);
  float* tmp = scratch.data();  // kp x B: tmp[m][x] = sum_n in[m][n] C[n][x]
  for (std::size_t m = 0; m < kp; ++m) {
    float* trow = &tmp[m * B];
    for (std::size_t x = 0; x < B; ++x) trow[x] = 0.0f;
    for (std::size_t n = 0; n < kp; ++n) {
      const float v = in[m * kp + n];
      if (v == 0.0f) continue;
      const float* cn = &basis_[n * B];
      for (std::size_t x = 0; x < B; ++x) trow[x] += v * cn[x];
    }
  }
  // out[y][x] = sum_m C[m][y] * tmp[m][x]
  for (std::size_t i = 0; i < B * B; ++i) out[i] = 0.0f;
  for (std::size_t m = 0; m < kp; ++m) {
    const float* cm = &basis_[m * B];
    const float* trow = &tmp[m * B];
    for (std::size_t y = 0; y < B; ++y) {
      const float c = cm[y];
      if (c == 0.0f) continue;
      float* orow = &out[y * B];
      for (std::size_t x = 0; x < B; ++x) orow[x] += c * trow[x];
    }
  }
}

}  // namespace hsdl::fte
