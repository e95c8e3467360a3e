#include "hotspot/detector.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "nn/workspace.hpp"
#include "hotspot/engine/engine.hpp"
#include "layout/transform.hpp"
#include "nn/serialize.hpp"

namespace hsdl::hotspot {
namespace {

std::size_t label_index(layout::HotspotLabel label) {
  HSDL_CHECK_MSG(label != layout::HotspotLabel::kUnknown,
                 "training/evaluation clip without a resolved label");
  return label == layout::HotspotLabel::kHotspot ? kHotspotIndex
                                                 : kNonHotspotIndex;
}

/// Online passes with inverse-class-frequency step weighting so the rare
/// hotspot class is not drowned out by the non-hotspot stream.
void run_online_refinement(baselines::BoostedStumps& boost,
                           const nn::ClassificationDataset& data,
                           const BoostDetectorConfig& config) {
  if (config.online_passes == 0) return;
  const auto n = static_cast<double>(data.size());
  const auto pos = static_cast<double>(data.count_label(1));
  const double w_pos = pos > 0 ? n / (2.0 * pos) : 0.0;
  const double w_neg = n - pos > 0 ? n / (2.0 * (n - pos)) : 0.0;
  for (std::size_t pass = 0; pass < config.online_passes; ++pass)
    for (std::size_t i = 0; i < data.size(); ++i)
      boost.update_online(data.features(i), data.label(i),
                          config.online_learning_rate,
                          data.label(i) == 1 ? w_pos : w_neg);
}

}  // namespace

double Detector::predict_probability(const layout::Clip& clip) const {
  return predict(clip) ? 1.0 : 0.0;
}

std::vector<double> Detector::predict_probabilities(
    std::span<const layout::Clip> clips) const {
  std::vector<double> probs(clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i)
    probs[i] = predict_probability(clips[i]);
  return probs;
}

DetectorEval Detector::evaluate(
    std::span<const layout::LabeledClip> test_clips) const {
  DetectorEval eval;
  WallTimer timer;
  for (const layout::LabeledClip& lc : test_clips) {
    const bool predicted = predict(lc.clip);
    eval.confusion.add(label_index(lc.label) == kHotspotIndex, predicted);
  }
  eval.eval_seconds = timer.seconds();
  return eval;
}

// -- CnnDetector -------------------------------------------------------------

void CnnDetectorConfig::validate() const {
  HSDL_CHECK_MSG(feature.coeffs > 0,
                 "cnn detector config: feature.coeffs must be positive");
  HSDL_CHECK_MSG(feature.blocks_per_side > 0,
                 "cnn detector config: feature.blocks_per_side must be "
                 "positive");
  HSDL_CHECK_MSG(feature.blocks_per_side % 4 == 0,
                 "cnn detector config: blocks_per_side ("
                     << feature.blocks_per_side
                     << ") must be divisible by 4 (two 2x2 poolings)");
  HSDL_CHECK_MSG(feature.nm_per_px > 0.0,
                 "cnn detector config: feature.nm_per_px must be positive, "
                 "got " << feature.nm_per_px);
  HSDL_CHECK_MSG(
      validation_fraction >= 0.0 && validation_fraction < 1.0,
      "cnn detector config: validation_fraction must be in [0, 1), got "
          << validation_fraction);
  HSDL_CHECK_MSG(shift >= -0.5 && shift <= 0.5,
                 "cnn detector config: shift must be in [-0.5, 0.5], got "
                     << shift << " (threshold 0.5 - shift would leave "
                                 "[0, 1])");
}

CnnDetector::CnnDetector(const CnnDetectorConfig& config)
    : config_(config),
      extractor_(config.feature),
      model_([&] {
        HotspotCnnConfig c = config.cnn;
        // The CNN input is the feature tensor; keep the shapes coupled so a
        // mismatched config cannot be constructed.
        c.input_channels = config.feature.coeffs;
        c.input_side = config.feature.blocks_per_side;
        return c;
      }()),
      rng_(config.seed) {
  config_.validate();
}

nn::ClassificationDataset CnnDetector::extract_dataset(
    std::span<const layout::LabeledClip> clips) const {
  nn::ClassificationDataset data(
      {config_.feature.coeffs, config_.feature.blocks_per_side,
       config_.feature.blocks_per_side});
  // Extraction is parallel over clips (independent outputs); the dataset is
  // assembled serially in clip order, so the result matches a serial build.
  std::vector<fte::FeatureTensor> fts(clips.size());
  parallel_for(0, clips.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      fts[i] = extractor_.extract(clips[i].clip);
  });
  for (std::size_t i = 0; i < clips.size(); ++i)
    data.add(std::move(fts[i].data), label_index(clips[i].label));
  return data;
}

BiasedLearningResult CnnDetector::train_on(
    const nn::ClassificationDataset& train_set,
    const nn::ClassificationDataset& val_set) {
  BiasedLearner learner(config_.biased);
  return learner.train(model_, train_set, val_set, rng_);
}

nn::Tensor CnnDetector::score_batch(const nn::Tensor& x,
                                    nn::WorkspaceArena& ws) const {
  return model_.probabilities(x, ws);
}

void CnnDetector::train(std::span<const layout::LabeledClip> train_clips) {
  HSDL_CHECK(!train_clips.empty());
  // 25 % validation split (paper Section 4.2), then feature extraction.
  std::vector<layout::LabeledClip> train_part, val_part;
  Rng split_rng(config_.seed ^ 0x5eedULL);
  layout::split_validation(train_clips, config_.validation_fraction,
                           split_rng, train_part, val_part);
  if (val_part.empty()) {  // tiny sets: validate on the training data
    val_part = train_part;
  }
  if (config_.augment_hotspots) {
    const std::size_t original = train_part.size();
    for (std::size_t i = 0; i < original; ++i) {
      if (train_part[i].label != layout::HotspotLabel::kHotspot) continue;
      for (layout::Dihedral op : layout::kAllDihedral) {
        if (op == layout::Dihedral::kIdentity) continue;
        train_part.push_back(
            {layout::transformed(train_part[i].clip, op),
             layout::HotspotLabel::kHotspot});
      }
    }
  }
  const nn::ClassificationDataset train_set = extract_dataset(train_part);
  const nn::ClassificationDataset val_set = extract_dataset(val_part);
  train_on(train_set, val_set);
}

std::string CnnDetector::fingerprint() const {
  std::ostringstream os;
  os << "HSDLDET1 k=" << config_.feature.coeffs
     << " n=" << config_.feature.blocks_per_side
     << " nmpp=" << config_.feature.nm_per_px
     << " s1=" << model_.config().stage1_maps
     << " s2=" << model_.config().stage2_maps
     << " fc=" << model_.config().fc_nodes;
  return os.str();
}

std::uint64_t CnnDetector::model_fingerprint() const {
  io::ByteWriter w;
  w.str(fingerprint());
  // The raw weights, not serialize_params(): that container ends in a
  // CRC of itself, and a CRC over such a buffer is the same for any
  // weights of the same size. params() is non-const only because
  // training mutates through it; this just reads.
  for (const nn::Param* p : const_cast<HotspotCnn&>(model_).net().params())
    w.f32_array(p->value.data(), p->value.numel());
  w.f64(decision_threshold());
  return io::crc32(w.buffer());
}

void CnnDetector::save(const std::string& path) {
  // Fingerprint line, then the v2 parameter container; the whole bundle
  // is written atomically so a crash mid-save cannot clobber the
  // previous checkpoint.
  io::atomic_write_file(
      path, fingerprint() + "\n" + nn::serialize_params(model_.net().params()));
}

void CnnDetector::load(const std::string& path) {
  const std::string data = io::read_file(path);
  const std::size_t nl = data.find('\n');
  if (nl == std::string::npos)
    throw io::IoError("missing fingerprint line", data.size(), path);
  const std::string expected = fingerprint();
  const std::string_view got = std::string_view(data).substr(0, nl);
  HSDL_CHECK_MSG(got == expected, "checkpoint fingerprint mismatch: '"
                                      << got << "' vs expected '" << expected
                                      << "'");
  nn::deserialize_params(std::string_view(data).substr(nl + 1),
                         model_.net().params(), path);
}

void CnnDetector::update_online(
    std::span<const layout::LabeledClip> new_clips,
    std::size_t iters_per_clip) {
  HSDL_CHECK(!new_clips.empty());
  const nn::ClassificationDataset fresh = extract_dataset(new_clips);
  MgdConfig cfg = config_.biased.finetune;
  cfg.epsilon = 0.0;
  cfg.max_iters = std::max<std::size_t>(1, iters_per_clip *
                                               new_clips.size());
  cfg.batch = std::min<std::size_t>(cfg.batch, fresh.size());
  cfg.validate_every = cfg.max_iters;  // single terminal validation
  cfg.patience = 1;
  // Single-class update streams can't use balanced sampling.
  cfg.balanced_batches = fresh.count_label(kHotspotIndex) > 0 &&
                         fresh.count_label(kNonHotspotIndex) > 0;
  MgdTrainer trainer(cfg);
  trainer.train(model_, fresh, fresh, rng_);
}

bool CnnDetector::predict(const layout::Clip& clip) const {
  return is_flagged(predict_probability(clip), decision_threshold());
}

double CnnDetector::predict_probability(const layout::Clip& clip) const {
  // Per-thread input tensor and workspace arena, so a window prediction
  // allocates nothing once warm. Under ReferenceModeGuard the same calls
  // run the reference kernels (extraction, layer walk and convs each
  // read the flag), so this one path is also the test oracle.
  std::vector<std::size_t> shape = model_.input_shape();
  shape.insert(shape.begin(), 1);
  thread_local nn::Tensor x;
  thread_local nn::WorkspaceArena arena;
  if (x.shape() != shape) x = nn::Tensor(shape);
  extractor_.extract_into(clip, std::span<float>(x.data(), x.numel()));
  nn::Tensor probs = score_batch(x, arena);
  const double p = static_cast<double>(probs.at(0, kHotspotIndex));
  arena.recycle(std::move(probs));
  return p;
}

std::vector<double> CnnDetector::predict_probabilities(
    std::span<const layout::Clip> clips) const {
  std::vector<double> out(clips.size());
  constexpr std::size_t kChunk = 64;
  const std::vector<std::size_t> shape = model_.input_shape();
  const std::size_t feat = shape[0] * shape[1] * shape[2];
  nn::WorkspaceArena arena;
  for (std::size_t start = 0; start < clips.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, clips.size() - start);
    nn::Tensor x = arena.take({n, shape[0], shape[1], shape[2]});
    parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i)
        extractor_.extract_into(clips[start + i],
                                std::span<float>(x.data() + i * feat, feat));
    });
    nn::Tensor probs = score_batch(x, arena);
    for (std::size_t i = 0; i < n; ++i)
      out[start + i] = static_cast<double>(probs.at(i, kHotspotIndex));
    arena.recycle(std::move(probs));
    arena.recycle(std::move(x));
  }
  return out;
}

DetectorEval CnnDetector::evaluate(
    std::span<const layout::LabeledClip> test_clips) const {
  // Batched evaluation routed through a local inference engine: the same
  // micro-batched extract + forward path production scanning uses, with
  // bitwise identical probabilities (DESIGN.md §11).
  DetectorEval eval;
  WallTimer timer;
  InferenceEngine engine(*this);
  const std::vector<double> probs = engine.score_labeled(test_clips);
  engine.shutdown();
  for (std::size_t i = 0; i < test_clips.size(); ++i) {
    const bool predicted = is_flagged(probs[i], decision_threshold());
    eval.confusion.add(label_index(test_clips[i].label) == kHotspotIndex,
                       predicted);
  }
  eval.eval_seconds = timer.seconds();
  return eval;
}

// -- boosting baselines -------------------------------------------------------

AdaBoostDensityDetector::AdaBoostDensityDetector(
    const features::DensityConfig& feature, const BoostDetectorConfig& config)
    : feature_(feature), config_(config), boost_(config.boost) {}

AdaBoostDensityDetector::AdaBoostDensityDetector()
    : AdaBoostDensityDetector(features::DensityConfig{}, [] {
        BoostDetectorConfig c;
        c.boost.scheme = baselines::WeightScheme::kExponential;
        c.boost.rounds = 100;
        return c;
      }()) {}

void AdaBoostDensityDetector::train(
    std::span<const layout::LabeledClip> train_clips) {
  HSDL_CHECK(!train_clips.empty());
  const std::size_t dim = feature_.grid_n * feature_.grid_n;
  nn::ClassificationDataset data({dim});
  for (const layout::LabeledClip& lc : train_clips)
    data.add(features::density_feature(lc.clip, feature_),
             label_index(lc.label));
  boost_ = baselines::BoostedStumps(config_.boost);
  boost_.train(data);
  run_online_refinement(boost_, data, config_);
  if (config_.tune_bias) config_.bias = boost_.tune_bias_balanced(data);
}

bool AdaBoostDensityDetector::predict(const layout::Clip& clip) const {
  const std::vector<float> x = features::density_feature(clip, feature_);
  return boost_.predict(x.data(), config_.bias);
}

double AdaBoostDensityDetector::predict_probability(
    const layout::Clip& clip) const {
  const std::vector<float> x = features::density_feature(clip, feature_);
  // Logistic squash of the bias-shifted margin: > 0.5 iff predict() fires.
  return 1.0 / (1.0 + std::exp(-(boost_.score(x.data()) - config_.bias)));
}

SmoothBoostCcsDetector::SmoothBoostCcsDetector(
    const features::CcsConfig& feature, const BoostDetectorConfig& config)
    : feature_(feature), config_(config), boost_(config.boost) {}

SmoothBoostCcsDetector::SmoothBoostCcsDetector()
    : SmoothBoostCcsDetector(features::CcsConfig{}, [] {
        BoostDetectorConfig c;
        c.boost.scheme = baselines::WeightScheme::kSmoothCapped;
        c.boost.rounds = 120;
        c.online_passes = 1;  // the online learning scheme of [5]
        return c;
      }()) {}

void SmoothBoostCcsDetector::train(
    std::span<const layout::LabeledClip> train_clips) {
  HSDL_CHECK(!train_clips.empty());
  const std::size_t dim = feature_.circles * feature_.samples_per_circle;
  nn::ClassificationDataset data({dim});
  for (const layout::LabeledClip& lc : train_clips)
    data.add(features::ccs_feature(lc.clip, feature_), label_index(lc.label));
  boost_ = baselines::BoostedStumps(config_.boost);
  boost_.train(data);
  run_online_refinement(boost_, data, config_);
  if (config_.tune_bias) config_.bias = boost_.tune_bias_balanced(data);
}

bool SmoothBoostCcsDetector::predict(const layout::Clip& clip) const {
  const std::vector<float> x = features::ccs_feature(clip, feature_);
  return boost_.predict(x.data(), config_.bias);
}

double SmoothBoostCcsDetector::predict_probability(const layout::Clip& clip) const {
  const std::vector<float> x = features::ccs_feature(clip, feature_);
  return 1.0 / (1.0 + std::exp(-(boost_.score(x.data()) - config_.bias)));
}

}  // namespace hsdl::hotspot
