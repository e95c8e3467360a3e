// The int8 accuracy-delta gate (ISSUE: quantized serving must lose less
// than 0.5% hotspot accuracy against the fp32 model it was built from).
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

/// One trained + quantized detector shared by the gate tests (training is
/// the slow part; the assertions are all read-only on the model).
CnnDetector& trained_detector() {
  static CnnDetector* det = [] {
    auto* d = new CnnDetector(fast_cnn_config());
    const auto& bench = tiny_benchmark();
    d->train(bench.train);
    // Calibrate activation scales on the tail quarter of the training
    // clips — the stand-in for the paper's held-out validation split.
    const std::size_t n_cal = bench.train.size() / 4;
    d->quantize(std::span<const layout::LabeledClip>(
        bench.train.data() + bench.train.size() - n_cal, n_cal));
    return d;
  }();
  return *det;
}

TEST(QuantAccuracyGateTest, Int8LosesLessThanHalfPercentAccuracy) {
  CnnDetector& det = trained_detector();
  const auto& bench = tiny_benchmark();
  ASSERT_TRUE(det.use_quantized());

  det.set_use_quantized(false);
  const DetectorEval fp32 = det.evaluate(bench.test);
  det.set_use_quantized(true);
  const DetectorEval int8 = det.evaluate(bench.test);

  // The gate: hotspot accuracy (paper Definition 1) may not drop by 0.5%
  // or more when serving switches to the int8 model.
  EXPECT_LT(fp32.confusion.accuracy() - int8.confusion.accuracy(), 0.005)
      << "fp32 accuracy " << fp32.confusion.accuracy() << " vs int8 "
      << int8.confusion.accuracy();
  // False alarms must not explode either (same per-clip tolerance).
  EXPECT_NEAR(static_cast<double>(int8.confusion.false_alarms()),
              static_cast<double>(fp32.confusion.false_alarms()),
              0.005 * static_cast<double>(bench.test.size()) + 1.0);
}

TEST(QuantAccuracyGateTest, Int8ProbabilitiesTrackFp32) {
  CnnDetector& det = trained_detector();
  const auto& bench = tiny_benchmark();
  std::vector<layout::Clip> clips;
  clips.reserve(bench.test.size());
  for (const auto& lc : bench.test) clips.push_back(lc.clip);

  det.set_use_quantized(false);
  const std::vector<double> p_fp32 = det.predict_probabilities(clips);
  det.set_use_quantized(true);
  const std::vector<double> p_int8 = det.predict_probabilities(clips);

  ASSERT_EQ(p_fp32.size(), p_int8.size());
  double max_dev = 0.0;
  for (std::size_t i = 0; i < p_fp32.size(); ++i)
    max_dev = std::max(max_dev, std::abs(p_fp32[i] - p_int8[i]));
  EXPECT_LT(max_dev, 0.08);
}

TEST(QuantAccuracyGateTest, WeightChangesDropTheQuantizedModel) {
  // A stale int8 model serving freshly updated weights would silently
  // answer with the old network; any weight change must invalidate it.
  // Invalidation only depends on the weights changing, not on model
  // quality, so skip the (slow) full training run.
  CnnDetector det(fast_cnn_config());
  const auto& bench = tiny_benchmark();
  det.quantize(std::span<const layout::LabeledClip>(bench.train.data(), 8));
  ASSERT_TRUE(det.use_quantized());
  det.update_online(std::span<const layout::LabeledClip>(
      bench.train.data(), 2));
  EXPECT_FALSE(det.use_quantized());
  EXPECT_EQ(det.quantized_net(), nullptr);
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
  const nn::Tensor p_prod = det.score_batch(prod, ws, /*quantized=*/false);
  const nn::Tensor p_ref = det.score_batch(ref, ws, /*quantized=*/false);
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
  const nn::Tensor p_prod = det.score_batch(x, ws, /*quantized=*/false);
  nn::Tensor p_ref;
  {
    runtime::ReferenceModeGuard guard(true);
    p_ref = det.score_batch(x, ws, /*quantized=*/false);
  }
  const DecisionDelta d =
      compare_decisions(p_prod, p_ref, det.decision_threshold());
  EXPECT_EQ(d.flips, 0u) << d.flagged << " of " << clips.size()
                         << " flagged";
  EXPECT_LE(d.max_dp, 1e-5);
}

}  // namespace
}  // namespace hsdl::hotspot
