// Bitwise-determinism contract of the parallel substrate: every
// parallelized hot path must produce results identical to its serial
// execution for any thread count (threads split only disjoint outputs;
// reductions happen in a fixed order). These tests run each path at 1, 2,
// and 8 threads and require exact equality against the 1-thread result.
//
// The whole suite runs with metrics and tracing ENABLED: the
// observability layer promises that instrumentation only reads clocks
// and bumps atomics, so turning it on must not perturb a single bit of
// any result (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "fte/feature_tensor.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scanner.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/tensor.hpp"

namespace hsdl {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores the default thread count AND runs the test body under full
/// instrumentation, proving telemetry never perturbs numerics.
struct ThreadCountGuard {
  ThreadCountGuard() {
    metrics::set_enabled(true);
    trace::set_enabled(true);
  }
  ~ThreadCountGuard() {
    set_num_threads(0);
    metrics::set_enabled(false);
    trace::set_enabled(false);
    trace::clear();
    metrics::reset();
  }
};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
}

layout::Clip random_clip(geom::Coord side, Rng& rng) {
  layout::Clip clip;
  clip.window = geom::Rect::from_xywh(0, 0, side, side);
  const std::size_t shapes = 8 + rng.index(8);
  for (std::size_t s = 0; s < shapes; ++s) {
    const geom::Coord w = 20 + static_cast<geom::Coord>(rng.index(120));
    const geom::Coord h = 20 + static_cast<geom::Coord>(rng.index(120));
    const geom::Coord x = static_cast<geom::Coord>(rng.index(
        static_cast<std::size_t>(side - w)));
    const geom::Coord y = static_cast<geom::Coord>(rng.index(
        static_cast<std::size_t>(side - h)));
    clip.shapes.push_back(geom::Rect::from_xywh(x, y, w, h));
  }
  return clip;
}

TEST(ParallelDeterminismTest, GemmMatchesSerialAtAnyThreadCount) {
  ThreadCountGuard guard;
  Rng rng(7);
  // Large enough for the blocked path; k = 300 crosses a KC boundary.
  struct Shape {
    bool ta, tb;
    std::size_t m, n, k;
  };
  const Shape shapes[] = {{false, false, 70, 90, 130},
                          {false, true, 64, 64, 300},
                          {true, false, 96, 33, 128}};
  for (const Shape& s : shapes) {
    const std::vector<float> a = random_vec(s.m * s.k, rng);
    const std::vector<float> b = random_vec(s.k * s.n, rng);
    const std::vector<float> c0 = random_vec(s.m * s.n, rng);
    const std::size_t lda = s.ta ? s.m : s.k;
    const std::size_t ldb = s.tb ? s.k : s.n;
    std::vector<float> reference;
    for (std::size_t threads : kThreadCounts) {
      set_num_threads(threads);
      std::vector<float> c = c0;
      nn::gemm(s.ta, s.tb, s.m, s.n, s.k, 1.25f, a.data(), lda, b.data(),
               ldb, 0.5f, c.data(), s.n);
      if (reference.empty())
        reference = c;
      else
        expect_bitwise_equal(c, reference, "gemm");
    }
  }
}

TEST(ParallelDeterminismTest, Conv2dForwardBackwardMatchesSerial) {
  ThreadCountGuard guard;
  Rng rng(11);
  nn::Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 5;
  const nn::Tensor x = nn::Tensor::from_data({6, 3, 16, 16},
                                             random_vec(6 * 3 * 16 * 16,
                                                        rng));
  const nn::Tensor g = nn::Tensor::from_data({6, 5, 16, 16},
                                             random_vec(6 * 5 * 16 * 16,
                                                        rng));
  Rng init(3);
  nn::Conv2d conv(config, init);
  std::vector<float> out_ref, gin_ref, dw_ref, db_ref, infer_ref;
  for (std::size_t threads : kThreadCounts) {
    set_num_threads(threads);
    conv.zero_grad();
    const nn::Tensor out = conv.forward(x, /*train=*/true);
    const nn::Tensor gin = conv.backward(g);
    const nn::Tensor inf = conv.infer(x);
    expect_bitwise_equal(out.vec(), inf.vec(), "conv infer vs forward");
    if (out_ref.empty()) {
      out_ref = out.vec();
      gin_ref = gin.vec();
      dw_ref = conv.weight().grad.vec();
      db_ref = conv.bias().grad.vec();
    } else {
      expect_bitwise_equal(out.vec(), out_ref, "conv forward");
      expect_bitwise_equal(gin.vec(), gin_ref, "conv grad_input");
      expect_bitwise_equal(conv.weight().grad.vec(), dw_ref, "conv dW");
      expect_bitwise_equal(conv.bias().grad.vec(), db_ref, "conv db");
    }
  }
}

TEST(ParallelDeterminismTest, FeatureBatchMatchesSerialExtraction) {
  ThreadCountGuard guard;
  Rng rng(23);
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < 10; ++i) clips.push_back(random_clip(480, rng));

  fte::FeatureTensorConfig config;
  config.blocks_per_side = 12;
  config.coeffs = 16;
  config.nm_per_px = 2.0;
  const fte::FeatureTensorExtractor extractor(config);

  set_num_threads(1);
  std::vector<std::vector<float>> reference;
  for (const layout::Clip& clip : clips)
    reference.push_back(extractor.extract(clip).data);

  for (std::size_t threads : kThreadCounts) {
    set_num_threads(threads);
    const std::vector<fte::FeatureTensor> batch =
        extractor.extract_batch(clips);
    ASSERT_EQ(batch.size(), clips.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_bitwise_equal(batch[i].data, reference[i], "feature tensor");
  }
}

hotspot::CnnDetectorConfig small_detector_config() {
  hotspot::CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 8;
  config.feature.nm_per_px = 4.0;  // 1200 nm window -> 300 px raster
  config.cnn.stage1_maps = 4;
  config.cnn.stage2_maps = 4;
  config.cnn.fc_nodes = 8;
  return config;
}

TEST(ParallelDeterminismTest, ScanReportMatchesSerialScan) {
  ThreadCountGuard guard;
  Rng rng(31);
  std::vector<geom::Rect> shapes;
  for (std::size_t i = 0; i < 60; ++i) {
    const geom::Coord w = 40 + static_cast<geom::Coord>(rng.index(400));
    const geom::Coord h = 40 + static_cast<geom::Coord>(rng.index(400));
    shapes.push_back(geom::Rect::from_xywh(
        static_cast<geom::Coord>(rng.index(2000)),
        static_cast<geom::Coord>(rng.index(2000)), w, h));
  }
  const layout::Layout chip(geom::Rect::from_xywh(0, 0, 2400, 2400),
                            std::move(shapes));

  // Untrained (deterministically initialized) CNN detector: probabilities
  // hover near 0.5, so hit membership itself exercises exact comparisons.
  hotspot::CnnDetector detector(small_detector_config());
  const hotspot::ChipScanner scanner(hotspot::ScanConfig{1200, 600});

  set_num_threads(1);
  const hotspot::ScanReport reference =
      scanner.scan(layout::FlatSource(chip), detector);
  EXPECT_EQ(reference.windows_scanned, 9u);

  for (std::size_t threads : kThreadCounts) {
    set_num_threads(threads);
    const hotspot::ScanReport report =
        scanner.scan(layout::FlatSource(chip), detector);
    EXPECT_EQ(report.windows_scanned, reference.windows_scanned);
    ASSERT_EQ(report.hits.size(), reference.hits.size());
    for (std::size_t i = 0; i < report.hits.size(); ++i) {
      EXPECT_EQ(report.hits[i].window, reference.hits[i].window);
      EXPECT_EQ(report.hits[i].probability,
                reference.hits[i].probability);  // bitwise
    }
  }
}

TEST(ParallelDeterminismTest, PredictProbabilitiesMatchSingleClipPath) {
  ThreadCountGuard guard;
  Rng rng(41);
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < 6; ++i) clips.push_back(random_clip(1200, rng));

  hotspot::CnnDetector detector(small_detector_config());
  set_num_threads(1);
  std::vector<double> reference(clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i)
    reference[i] = detector.predict_probability(clips[i]);

  for (std::size_t threads : kThreadCounts) {
    set_num_threads(threads);
    const std::vector<double> probs = detector.predict_probabilities(clips);
    ASSERT_EQ(probs.size(), reference.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], reference[i]) << "clip " << i;
      EXPECT_EQ(detector.predict(clips[i]),
                probs[i] > detector.decision_threshold());
    }
  }
}

TEST(ParallelDeterminismTest, EngineBatchedScoringMatchesSerialPerClip) {
  ThreadCountGuard guard;
  Rng rng(53);
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < 10; ++i)
    clips.push_back(random_clip(1200, rng));

  hotspot::CnnDetector detector(small_detector_config());
  set_num_threads(1);
  std::vector<double> reference(clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i)
    reference[i] = detector.predict_probability(clips[i]);

  // The engine's batch composition is timing-dependent (adaptive
  // micro-batching), so bitwise equality here proves the per-sample
  // arithmetic is independent of both batching AND thread count.
  for (std::size_t threads : kThreadCounts) {
    set_num_threads(threads);
    hotspot::EngineConfig config;
    config.max_batch = 4;  // forces the 10 clips across >= 3 batches
    hotspot::InferenceEngine engine(detector, config);
    const std::vector<double> probs = engine.score(clips);
    ASSERT_EQ(probs.size(), reference.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
      EXPECT_EQ(probs[i], reference[i])
          << "clip " << i << " at " << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, EngineRoutedScanMatchesDetectorScan) {
  ThreadCountGuard guard;
  Rng rng(59);
  std::vector<geom::Rect> shapes;
  for (std::size_t i = 0; i < 60; ++i) {
    const geom::Coord w = 40 + static_cast<geom::Coord>(rng.index(400));
    const geom::Coord h = 40 + static_cast<geom::Coord>(rng.index(400));
    shapes.push_back(geom::Rect::from_xywh(
        static_cast<geom::Coord>(rng.index(2000)),
        static_cast<geom::Coord>(rng.index(2000)), w, h));
  }
  const layout::Layout chip(geom::Rect::from_xywh(0, 0, 2400, 2400),
                            std::move(shapes));
  hotspot::CnnDetector detector(small_detector_config());
  const hotspot::ChipScanner scanner(hotspot::ScanConfig{1200, 600});

  set_num_threads(1);
  const hotspot::ScanReport reference =
      scanner.scan(layout::FlatSource(chip), detector);

  for (std::size_t threads : kThreadCounts) {
    set_num_threads(threads);
    hotspot::InferenceEngine engine(detector);
    const hotspot::ScanReport report =
        scanner.scan(layout::FlatSource(chip), engine);
    EXPECT_EQ(report.windows_scanned, reference.windows_scanned);
    ASSERT_EQ(report.hits.size(), reference.hits.size());
    for (std::size_t i = 0; i < report.hits.size(); ++i) {
      EXPECT_EQ(report.hits[i].window, reference.hits[i].window);
      EXPECT_EQ(report.hits[i].probability,
                reference.hits[i].probability);  // bitwise
    }
  }
}

}  // namespace
}  // namespace hsdl
