// Process-wide reference-mode switch for the serving fast paths.
//
// The direct-convolution, operator-fusion and feature-extraction fast
// paths each keep their original implementation alive as a reference
// oracle. With reference mode on, Conv2d falls back to im2col+GEMM,
// Sequential::infer runs every layer unfused, HotspotCnn::probabilities
// applies a separate softmax, Linear keeps gemm's cutoff dispatch, and
// feature extraction runs rasterize + a per-block DCT — the
// pre-optimization serving pipeline. There is no separate oracle entry
// point: the same calls (CnnDetector::predict_probability included) run
// the reference kernels while the flag is on. Benchmarks use it to
// measure the honest baseline; equivalence tests flip it to hold the
// fast paths to it within float rounding: features (fte/feature_tensor.hpp)
// and stride-1 convolution (nn/conv_direct.hpp, FMA against im2col's
// separate multiply and add). Strided convs still match it bitwise.
//
// The flag is read per call with relaxed ordering: flip it only while no
// inference is in flight (benchmarks and tests do so between phases).
#pragma once

#include <atomic>

namespace hsdl::runtime {

inline std::atomic<bool>& reference_mode_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool reference_mode() {
  return reference_mode_flag().load(std::memory_order_relaxed);
}

inline void set_reference_mode(bool on) {
  reference_mode_flag().store(on, std::memory_order_relaxed);
}

/// RAII guard for tests/benchmarks: enters the given mode, restores the
/// previous one on scope exit.
class ReferenceModeGuard {
 public:
  explicit ReferenceModeGuard(bool on) : prev_(reference_mode()) {
    set_reference_mode(on);
  }
  ~ReferenceModeGuard() { set_reference_mode(prev_); }
  ReferenceModeGuard(const ReferenceModeGuard&) = delete;
  ReferenceModeGuard& operator=(const ReferenceModeGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace hsdl::runtime
