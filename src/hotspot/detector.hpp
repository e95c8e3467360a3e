// Hotspot detector public API.
//
// A Detector consumes labeled clips, trains, and classifies unseen clips.
// Three implementations mirror the paper's Table 2 columns:
//   * CnnDetector           — feature tensor + CNN + biased learning (ours)
//   * AdaBoostDensityDetector — AdaBoost on density features (SPIE'15 [4])
//   * SmoothBoostCcsDetector  — smooth boosting on CCS features, with an
//                               online refinement pass (ICCAD'16 [5])
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baselines/boosting.hpp"
#include "features/ccs.hpp"
#include "features/density.hpp"
#include "fte/feature_tensor.hpp"
#include "hotspot/biased.hpp"
#include "hotspot/cnn.hpp"
#include "hotspot/metrics.hpp"
#include "layout/dataset.hpp"

namespace hsdl::hotspot {

/// Test-set evaluation outcome: confusion counts plus the wall time of
/// classifier evaluation (feature extraction + inference), from which the
/// ODST follows (Definition 3).
struct DetectorEval {
  Confusion confusion;
  double eval_seconds = 0.0;

  double odst() const { return confusion.odst_seconds(eval_seconds); }
};

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string name() const = 0;

  /// Trains on labeled clips (labels must be resolved, not kUnknown).
  virtual void train(std::span<const layout::LabeledClip> train_clips) = 0;

  /// Classifies one clip; true = hotspot. Const: inference never mutates
  /// detector state, so a trained detector can serve concurrent callers
  /// (scanner bands, the inference engine, evaluation threads).
  virtual bool predict(const layout::Clip& clip) const = 0;

  /// Hotspot confidence in [0, 1] for one clip. Consistent with
  /// predict(): predict(clip) == is_flagged(predict_probability(clip),
  /// decision_threshold()). The default derives a degenerate 0/1
  /// probability from predict(); detectors with a real confidence
  /// override it.
  virtual double predict_probability(const layout::Clip& clip) const;

  /// Batched probabilities, index-aligned with `clips`. The default
  /// loops predict_probability(); batch-capable detectors override it
  /// (the CNN detector extracts features in parallel and runs one
  /// batched forward pass).
  virtual std::vector<double> predict_probabilities(
      std::span<const layout::Clip> clips) const;

  /// Probability above which a clip counts as a hotspot (see
  /// is_flagged in metrics.hpp for the exact predicate; a threshold
  /// <= 0 flags everything).
  virtual double decision_threshold() const { return 0.5; }

  /// Classifies a labeled test set and measures evaluation time.
  virtual DetectorEval evaluate(
      std::span<const layout::LabeledClip> test_clips) const;
};

// ---------------------------------------------------------------------------

struct CnnDetectorConfig {
  fte::FeatureTensorConfig feature;
  HotspotCnnConfig cnn;
  BiasedLearningConfig biased;
  double validation_fraction = 0.25;  ///< paper: 25 % held out
  double shift = 0.0;  ///< decision-boundary shift (Equation (11))
  /// Augment hotspot training clips with the 8 dihedral symmetries of the
  /// square window (label-invariant under the isotropic litho model).
  /// Compensates for the scaled-down benchmark sizes; see EXPERIMENTS.md.
  bool augment_hotspots = true;
  std::uint64_t seed = 1;

  /// Rejects nonsense configurations (empty feature tensor, out-of-range
  /// validation fraction, degenerate shift) with a positioned error.
  /// CnnDetector's constructor calls this, so an invalid config can never
  /// reach training or serving.
  void validate() const;
};

/// The paper's detector. Also exposes dataset-level entry points so
/// benchmarks can reuse pre-extracted feature tensors.
class CnnDetector final : public Detector {
 public:
  explicit CnnDetector(const CnnDetectorConfig& config = {});

  std::string name() const override { return "cnn-feature-tensor"; }
  void train(std::span<const layout::LabeledClip> train_clips) override;
  bool predict(const layout::Clip& clip) const override;
  double predict_probability(const layout::Clip& clip) const override;
  std::vector<double> predict_probabilities(
      std::span<const layout::Clip> clips) const override;
  double decision_threshold() const override { return 0.5 - config_.shift; }
  /// Batched evaluation routed through a local InferenceEngine, so the
  /// evaluation path exercises the same pipeline as production scanning.
  DetectorEval evaluate(
      std::span<const layout::LabeledClip> test_clips) const override;

  /// Feature-tensor dataset for a clip list (label kUnknown asserts).
  nn::ClassificationDataset extract_dataset(
      std::span<const layout::LabeledClip> clips) const;

  /// Trains directly on datasets (validation split already made).
  BiasedLearningResult train_on(const nn::ClassificationDataset& train_set,
                                const nn::ClassificationDataset& val_set);

  /// Online model update on newly arriving labeled clips (the paper's
  /// "trained model can be effectively updated with newly incoming
  /// instances" — a short MGD fine-tune from the current weights, O(m) in
  /// the number of new instances).
  void update_online(std::span<const layout::LabeledClip> new_clips,
                     std::size_t iters_per_clip = 4);

  /// Decision-boundary shift lambda: hotspot if p(hotspot) > 0.5 - shift.
  void set_shift(double shift) { config_.shift = shift; }
  double shift() const { return config_.shift; }

  HotspotCnn& model() { return model_; }
  const HotspotCnn& model() const { return model_; }
  const fte::FeatureTensorExtractor& extractor() const { return extractor_; }

  /// Batched probabilities [N, 2] from the fp32 network. The inference
  /// engine and evaluate() route through this.
  nn::Tensor score_batch(const nn::Tensor& x, nn::WorkspaceArena& ws) const;

  /// Identity of the model that score_batch runs: the feature/
  /// architecture fingerprint, the weights and the decision threshold.
  /// Resumable scan state binds to it, so results scored by one model
  /// are never merged into another's.
  std::uint64_t model_fingerprint() const;

  /// Saves the trained weights plus the feature/architecture fingerprint;
  /// load() verifies the fingerprint so a checkpoint cannot be restored
  /// into a detector with a different feature tensor or CNN shape. The
  /// save is atomic (write temp + rename) and the parameter payload is
  /// the checksummed v2 container, so a corrupted or truncated bundle is
  /// rejected with a positioned error (see nn/serialize.hpp).
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  std::string fingerprint() const;

  CnnDetectorConfig config_;
  fte::FeatureTensorExtractor extractor_;
  HotspotCnn model_;
  Rng rng_;
};

// ---------------------------------------------------------------------------

struct BoostDetectorConfig {
  baselines::BoostConfig boost;
  double bias = 0.0;  ///< decision threshold on the margin score
  /// Replace `bias` with the balanced-accuracy-optimal threshold measured
  /// on the training set (the high-recall operating point the reference
  /// detectors publish).
  bool tune_bias = true;
  /// Online refinement passes over the training stream after batch
  /// boosting (0 disables). Updates are inverse-class-frequency weighted.
  std::size_t online_passes = 0;
  double online_learning_rate = 0.05;
};

/// SPIE'15-style baseline: AdaBoost over local-density features.
class AdaBoostDensityDetector final : public Detector {
 public:
  AdaBoostDensityDetector(const features::DensityConfig& feature,
                          const BoostDetectorConfig& config);
  AdaBoostDensityDetector();

  std::string name() const override { return "adaboost-density"; }
  void train(std::span<const layout::LabeledClip> train_clips) override;
  bool predict(const layout::Clip& clip) const override;
  double predict_probability(const layout::Clip& clip) const override;

  const baselines::BoostedStumps& ensemble() const { return boost_; }

 private:
  features::DensityConfig feature_;
  BoostDetectorConfig config_;
  baselines::BoostedStumps boost_;
};

/// ICCAD'16-style baseline: smooth boosting over CCS features with an
/// online refinement pass.
class SmoothBoostCcsDetector final : public Detector {
 public:
  SmoothBoostCcsDetector(const features::CcsConfig& feature,
                         const BoostDetectorConfig& config);
  SmoothBoostCcsDetector();

  std::string name() const override { return "smoothboost-ccs"; }
  void train(std::span<const layout::LabeledClip> train_clips) override;
  bool predict(const layout::Clip& clip) const override;
  double predict_probability(const layout::Clip& clip) const override;

  const baselines::BoostedStumps& ensemble() const { return boost_; }

 private:
  features::CcsConfig feature_;
  BoostDetectorConfig config_;
  baselines::BoostedStumps boost_;
};

}  // namespace hsdl::hotspot
