// Decision gates for the reference-mode oracles: the production feature
// extractor and the production convolutions may differ from their
// reference twins by float rounding only, so no corpus clip may change
// its flagged decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <vector>

#include "common/refmode.hpp"
#include "hotspot/benchmark_factory.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/metrics.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {
namespace {

/// Shared tiny benchmark, built once (labeling is the slow part).
const layout::BenchmarkData& tiny_benchmark() {
  static const layout::BenchmarkData data = [] {
    BenchmarkSpec spec = industry3_spec(0.004);  // ~100 train / 150 test
    return build_benchmark(spec);
  }();
  return data;
}

CnnDetectorConfig fast_cnn_config() {
  CnnDetectorConfig cfg;
  cfg.biased.rounds = 1;
  cfg.biased.initial.max_iters = 500;
  cfg.biased.initial.learning_rate = 8e-3;
  cfg.biased.initial.decay_step = 250;
  cfg.biased.initial.validate_every = 50;
  cfg.biased.initial.patience = 20;
  return cfg;
}

/// One trained detector shared by the gate tests (training is the slow
/// part; the assertions are all read-only on the model).
const CnnDetector& trained_detector() {
  static const CnnDetector* det = [] {
    auto* d = new CnnDetector(fast_cnn_config());
    d->train(tiny_benchmark().train);
    return d;
  }();
  return *det;
}

/// Every train and test clip of the shared benchmark.
std::vector<layout::Clip> corpus_clips() {
  const auto& bench = tiny_benchmark();
  std::vector<layout::Clip> clips;
  for (const auto& lc : bench.train) clips.push_back(lc.clip);
  for (const auto& lc : bench.test) clips.push_back(lc.clip);
  return clips;
}

/// One feature row per clip, extracted under the current mode.
nn::Tensor extract_all(const CnnDetector& det,
                       const std::vector<layout::Clip>& clips) {
  std::vector<std::size_t> shape = det.model().input_shape();
  shape.insert(shape.begin(), clips.size());
  nn::Tensor x(shape);
  const std::size_t per = x.numel() / clips.size();
  for (std::size_t i = 0; i < clips.size(); ++i)
    det.extractor().extract_into(clips[i],
                                 std::span<float>(x.data() + i * per, per));
  return x;
}

/// Flagged-decision flips and the largest hotspot-probability gap
/// between two scorings of the same clips; records both as properties.
struct DecisionDelta {
  std::size_t flips = 0;
  std::size_t flagged = 0;
  double max_dp = 0.0;
};

DecisionDelta compare_decisions(const nn::Tensor& p_prod,
                                const nn::Tensor& p_ref, double threshold) {
  DecisionDelta d;
  const std::size_t n = p_prod.extent(0);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = p_prod.at(i, kHotspotIndex);
    const double b = p_ref.at(i, kHotspotIndex);
    d.max_dp = std::max(d.max_dp, std::abs(a - b));
    const bool fa = is_flagged(a, threshold);
    d.flagged += fa ? 1 : 0;
    d.flips += fa != is_flagged(b, threshold) ? 1 : 0;
  }
  std::ostringstream dp;
  dp << std::scientific << d.max_dp;
  ::testing::Test::RecordProperty("clips", static_cast<int>(n));
  ::testing::Test::RecordProperty("flagged", static_cast<int>(d.flagged));
  ::testing::Test::RecordProperty("max_abs_dp", dp.str());
  return d;
}

TEST(FeatureDecisionGateTest, ReferenceFeaturesFlipNoDecision) {
  // Production features (row-run slab sums) and the reference-mode oracle
  // (rasterize + per-block DCT) differ by float rounding only. Scored by
  // the same production fp32 network, no corpus clip may change its
  // flagged decision and no probability may move by more than 1e-5.
  const CnnDetector& det = trained_detector();
  const std::vector<layout::Clip> clips = corpus_clips();
  ASSERT_GE(clips.size(), 200u);

  const nn::Tensor prod = extract_all(det, clips);
  nn::Tensor ref;
  {
    runtime::ReferenceModeGuard guard(true);
    ref = extract_all(det, clips);
  }

  nn::WorkspaceArena ws;
  const nn::Tensor p_prod = det.score_batch(prod, ws);
  const nn::Tensor p_ref = det.score_batch(ref, ws);
  const DecisionDelta d =
      compare_decisions(p_prod, p_ref, det.decision_threshold());
  EXPECT_EQ(d.flips, 0u) << d.flagged << " of " << clips.size()
                         << " flagged";
  EXPECT_LE(d.max_dp, 1e-5);
}

TEST(ConvDecisionGateTest, ReferenceConvFlipsNoDecision) {
  // The production network (FMA convolutions, fused layers) and the
  // reference-mode network (im2col + GEMM convolutions, unfused layers,
  // separate softmax) differ by float rounding only. Scoring the same
  // production features, no corpus clip may change its flagged decision
  // and no probability may move by more than 1e-5.
  const CnnDetector& det = trained_detector();
  const std::vector<layout::Clip> clips = corpus_clips();
  ASSERT_GE(clips.size(), 200u);

  const nn::Tensor x = extract_all(det, clips);
  nn::WorkspaceArena ws;
  const nn::Tensor p_prod = det.score_batch(x, ws);
  nn::Tensor p_ref;
  {
    runtime::ReferenceModeGuard guard(true);
    p_ref = det.score_batch(x, ws);
  }
  const DecisionDelta d =
      compare_decisions(p_prod, p_ref, det.decision_threshold());
  EXPECT_EQ(d.flips, 0u) << d.flagged << " of " << clips.size()
                         << " flagged";
  EXPECT_LE(d.max_dp, 1e-5);
}

}  // namespace
}  // namespace hsdl::hotspot
