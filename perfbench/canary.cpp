// Host canary: a fixed SIMD- and memory-bound kernel that uses no hsdl
// code. perfbench/run.py times it in its own process before and after
// every workload run, so a noisy metric can be set beside the host's own
// drift: when the canary moved as much as the metric, blame the host.
#include <algorithm>
#include <cstddef>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Streams 3 x 24 MiB arrays (triad): bound by memory bandwidth.
double memory_pass(std::vector<float>& a, const std::vector<float>& b,
                   const std::vector<float>& c) {
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 1.0009765625f * c[i];
  return static_cast<double>(a[n / 2]);
}

/// Multiply-adds over a 16 KiB array that stays in L1: bound by the
/// vector units.
double simd_pass(std::vector<float>& y) {
  for (int rep = 0; rep < 2000; ++rep)
    for (float& v : y) v = v * 0.999755859375f + 0.000244140625f;
  return static_cast<double>(y[7]);
}

}  // namespace

double canary_ms() {
  constexpr std::size_t kStream = 6u << 20;  // floats per array
  std::vector<float> a(kStream, 0.0f), b(kStream, 1.0f), c(kStream, 2.0f);
  std::vector<float> y(4096, 0.5f);
  (void)memory_pass(a, b, c);  // fault the pages in, outside the timing
  std::vector<double> samples;
  double sink = 0.0;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < 6; ++i) sink += memory_pass(a, b, c);
    sink += simd_pass(y);
    samples.push_back((now_s() - t0) * 1e3);
  }
  // The sink keeps the passes observable; it is never this large.
  if (sink < -1.0) samples.push_back(sink);
  return median(samples);
}

}  // namespace perfbench
