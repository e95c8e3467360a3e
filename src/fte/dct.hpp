// 2-D discrete cosine transform over square blocks.
//
// Implements the paper's Step 2 (Section 3). We use the orthonormal DCT-II
// so the transform is exactly invertible by its transpose (DCT-III); the
// paper's un-normalized formula differs from this only by a fixed per-
// coefficient scale, which is irrelevant to any downstream learner and
// buys the clean "clip can be recovered from the tensor" property.
//
// Separable evaluation through a precomputed basis matrix gives
// O(B^3) per block; `partial()` computes only the low-frequency
// top-left kp x kp corner in O(kp * B^2). Feature extraction uses it only
// as the reference-mode oracle: production extraction integrates basis()
// over pixel runs instead (fte/feature_tensor.hpp).
#pragma once

#include <cstddef>
#include <vector>

namespace hsdl::fte {

/// Precomputed DCT plan for a fixed block size B. Immutable after
/// construction: every member function is const and touches no shared
/// state, so one plan can serve many threads concurrently (batched
/// feature extraction parallelizes over clips against a single plan).
class DctPlan {
 public:
  explicit DctPlan(std::size_t block_size);

  std::size_t block_size() const { return block_; }

  /// Forward 2-D orthonormal DCT-II. `in` and `out` are B*B row-major.
  void forward(const float* in, float* out) const;

  /// Inverse (DCT-III); exact inverse of forward().
  void inverse(const float* in, float* out) const;

  /// Partial forward: computes only coefficients (m, n) with m < kp and
  /// n < kp, written to `out` as kp x kp row-major. Identical values to the
  /// corresponding corner of forward().
  void partial(const float* in, std::size_t kp, float* out) const;

  /// Inverse from a partial kp x kp corner (higher coefficients zero).
  void inverse_partial(const float* in, std::size_t kp, float* out) const;

  /// Row-major B x B orthonormal basis: basis()[m * B + x] is the m-th
  /// cosine at pixel x. Feature extraction integrates it over pixel runs.
  const std::vector<float>& basis() const { return basis_; }

 private:
  std::size_t block_;
  // basis_[m * B + x] = s_m * cos(pi/B * (x + 0.5) * m)
  std::vector<float> basis_;
};

}  // namespace hsdl::fte
