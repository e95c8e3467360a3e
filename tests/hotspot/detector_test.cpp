#include "hotspot/detector.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "hotspot/benchmark_factory.hpp"

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

/// One fast_cnn_config() detector trained once on tiny_benchmark() and
/// saved to a checkpoint, shared by every case that only reads a trained
/// model (training is this suite's cost). A case that changes the
/// detector puts it back; one that trains further loads its own copy.
struct TrainedCnn {
  CnnDetector det{fast_cnn_config()};
  std::string checkpoint = ::testing::TempDir() + "/detector_trained.ckpt";
  TrainedCnn() {
    det.train(tiny_benchmark().train);
    det.save(checkpoint);
  }
};

TrainedCnn& trained_cnn() {
  static TrainedCnn trained;
  return trained;
}

TEST(CnnDetectorTest, NameAndConfigCoupling) {
  CnnDetectorConfig cfg;
  cfg.feature.coeffs = 16;
  cfg.feature.blocks_per_side = 8;
  cfg.cnn.input_channels = 999;  // must be overridden by feature config
  CnnDetector det(cfg);
  EXPECT_EQ(det.name(), "cnn-feature-tensor");
  EXPECT_EQ(det.model().config().input_channels, 16u);
  EXPECT_EQ(det.model().config().input_side, 8u);
}

TEST(CnnDetectorTest, ExtractDatasetShapes) {
  CnnDetector det{CnnDetectorConfig{}};
  const auto& bench = tiny_benchmark();
  auto data = det.extract_dataset(bench.test);
  EXPECT_EQ(data.size(), bench.test.size());
  EXPECT_EQ(data.feature_shape(), (std::vector<std::size_t>{32, 12, 12}));
  EXPECT_EQ(data.count_label(kHotspotIndex), bench.test_hotspots());
}

TEST(CnnDetectorTest, TrainEvaluateBeatsChance) {
  const CnnDetector& det = trained_cnn().det;
  const auto& bench = tiny_benchmark();
  DetectorEval eval = det.evaluate(bench.test);
  EXPECT_EQ(eval.confusion.total(), bench.test.size());
  // Balanced accuracy above coin flip.
  const double hs = eval.confusion.accuracy();
  const double nhs = static_cast<double>(eval.confusion.tn) /
                     static_cast<double>(eval.confusion.fp +
                                         eval.confusion.tn);
  EXPECT_GT(0.5 * (hs + nhs), 0.6);
  EXPECT_GT(eval.eval_seconds, 0.0);
  EXPECT_GE(eval.odst(), 10.0 * eval.confusion.detected());
}

TEST(CnnDetectorTest, PredictMatchesBatchedEvaluate) {
  const CnnDetector& det = trained_cnn().det;
  const auto& bench = tiny_benchmark();
  Confusion loop;
  for (const auto& lc : bench.test)
    loop.add(lc.label == layout::HotspotLabel::kHotspot,
             det.predict(lc.clip));
  DetectorEval batched = det.evaluate(bench.test);
  EXPECT_EQ(loop.tp, batched.confusion.tp);
  EXPECT_EQ(loop.fp, batched.confusion.fp);
}

TEST(CnnDetectorTest, ShiftIncreasesDetections) {
  CnnDetector& det = trained_cnn().det;
  const auto& bench = tiny_benchmark();
  DetectorEval neutral = det.evaluate(bench.test);
  const double saved_shift = det.shift();
  det.set_shift(0.3);
  DetectorEval shifted = det.evaluate(bench.test);
  det.set_shift(saved_shift);
  EXPECT_GE(shifted.confusion.detected(), neutral.confusion.detected());
  EXPECT_GE(shifted.confusion.accuracy(), neutral.confusion.accuracy());
}

TEST(CnnDetectorTest, TrainRejectsEmpty) {
  CnnDetector det(fast_cnn_config());
  EXPECT_THROW(det.train({}), hsdl::CheckError);
}

TEST(CnnDetectorTest, UnlabeledClipRejected) {
  CnnDetector det{CnnDetectorConfig{}};
  std::vector<layout::LabeledClip> clips(1);
  clips[0].clip.window = geom::Rect::from_xywh(0, 0, 1200, 1200);
  clips[0].label = layout::HotspotLabel::kUnknown;
  EXPECT_THROW(det.extract_dataset(clips), hsdl::CheckError);
}

TEST(AdaBoostDetectorTest, TrainsAndDetects) {
  AdaBoostDensityDetector det;
  const auto& bench = tiny_benchmark();
  det.train(bench.train);
  DetectorEval eval = det.evaluate(bench.test);
  EXPECT_EQ(eval.confusion.total(), bench.test.size());
  EXPECT_GT(eval.confusion.accuracy(), 0.2);  // far above zero recall
  EXPECT_GT(det.ensemble().rounds_trained(), 10u);
}

TEST(SmoothBoostDetectorTest, TrainsAndDetects) {
  SmoothBoostCcsDetector det;
  const auto& bench = tiny_benchmark();
  det.train(bench.train);
  DetectorEval eval = det.evaluate(bench.test);
  EXPECT_EQ(eval.confusion.total(), bench.test.size());
  EXPECT_GT(eval.confusion.accuracy(), 0.2);
}

TEST(CnnDetectorTest, OnlineUpdateImprovesOnNewData) {
  // Train on the benchmark, then stream additional labeled clips through
  // update_online: fitting error on the new stream must not get worse.
  // It changes the weights, so it works on a copy of the shared model.
  CnnDetector det(fast_cnn_config());
  det.load(trained_cnn().checkpoint);
  const auto& bench = tiny_benchmark();
  // "New" data: a slice of test clips (unseen during training).
  std::vector<layout::LabeledClip> fresh(bench.test.begin(),
                                         bench.test.begin() + 60);
  Confusion before;
  for (const auto& lc : fresh)
    before.add(lc.label == layout::HotspotLabel::kHotspot,
               det.predict(lc.clip));
  det.update_online(fresh, /*iters_per_clip=*/3);
  Confusion after;
  for (const auto& lc : fresh)
    after.add(lc.label == layout::HotspotLabel::kHotspot,
              det.predict(lc.clip));
  EXPECT_GE(after.tp + after.tn + 3, before.tp + before.tn);
}

TEST(CnnDetectorTest, OnlineUpdateRejectsEmptyStream) {
  CnnDetector det{CnnDetectorConfig{}};
  EXPECT_THROW(det.update_online({}), hsdl::CheckError);
}

TEST(CnnDetectorTest, SaveLoadRoundTripsPredictions) {
  const TrainedCnn& trained = trained_cnn();
  const CnnDetector& a = trained.det;
  const auto& bench = tiny_benchmark();
  CnnDetector b(fast_cnn_config());  // fresh random weights
  b.load(trained.checkpoint);
  for (std::size_t i = 0; i < bench.test.size(); i += 11)
    EXPECT_EQ(a.predict(bench.test[i].clip), b.predict(bench.test[i].clip));
}

TEST(CnnDetectorTest, LoadRejectsCorruptedBundle) {
  CnnDetector a(fast_cnn_config());
  const std::string path = ::testing::TempDir() + "/detector_corrupt.ckpt";
  a.save(path);
  // Flip one bit in the middle of the weight payload; the checksummed
  // v2 container must reject the bundle instead of loading bad weights.
  std::string data;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    data = os.str();
  }
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x04);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  CnnDetector b(fast_cnn_config());
  EXPECT_THROW(b.load(path), hsdl::CheckError);
  std::remove(path.c_str());
}

TEST(CnnDetectorTest, LoadRejectsMismatchedArchitecture) {
  CnnDetector a(fast_cnn_config());
  const std::string path = ::testing::TempDir() + "/detector_arch.ckpt";
  a.save(path);
  CnnDetectorConfig other = fast_cnn_config();
  other.feature.coeffs = 16;  // different feature tensor
  CnnDetector b(other);
  EXPECT_THROW(b.load(path), hsdl::CheckError);
}

TEST(CnnDetectorTest, AdamOptimizerAlsoTrains) {
  CnnDetectorConfig cfg = fast_cnn_config();
  cfg.biased.initial.optimizer = OptimizerKind::kAdam;
  cfg.biased.initial.learning_rate = 1e-3;  // Adam wants a smaller lr
  CnnDetector det(cfg);
  const auto& bench = tiny_benchmark();
  det.train(bench.train);
  DetectorEval eval = det.evaluate(bench.test);
  const double hs = eval.confusion.accuracy();
  const double nhs =
      static_cast<double>(eval.confusion.tn) /
      static_cast<double>(eval.confusion.fp + eval.confusion.tn);
  EXPECT_GT(0.5 * (hs + nhs), 0.55);
}

TEST(DetectorPolymorphismTest, BaseEvaluateWorksThroughInterface) {
  AdaBoostDensityDetector ada;
  const auto& bench = tiny_benchmark();
  Detector& det = ada;
  det.train(bench.train);
  DetectorEval eval = det.evaluate(bench.test);
  EXPECT_EQ(eval.confusion.total(), bench.test.size());
}

}  // namespace
}  // namespace hsdl::hotspot
