// Serving model registry: generation-tagged (detector, engine) pairs
// with swap-without-drain semantics (DESIGN.md §13).
//
// The registry owns the active serving model — a trained CnnDetector
// plus the InferenceEngine batching requests into it — behind a
// shared_ptr. Sessions acquire() a handle per request; a hot-swap
// replaces the registry's pointer atomically, so new requests land on
// the new model while every in-flight request keeps its handle and
// completes against the model that scored its first clip. The old
// engine drains and is destroyed when the last in-flight handle drops —
// no global pause, no request ever sees two models.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "hotspot/detector.hpp"
#include "hotspot/engine/engine.hpp"

namespace hsdl::serve {

/// One generation of the served model. Member order is load-bearing:
/// the engine must be destroyed before the detector it scores through.
class ServingModel {
 public:
  ServingModel(std::uint64_t generation, std::string source,
               std::unique_ptr<hotspot::CnnDetector> detector,
               const hotspot::EngineConfig& engine_config);

  std::uint64_t generation() const { return generation_; }
  const std::string& source() const { return source_; }
  const hotspot::CnnDetector& detector() const { return *detector_; }
  hotspot::InferenceEngine& engine() { return *engine_; }

 private:
  std::uint64_t generation_;
  std::string source_;  // checkpoint path, or a caller-provided label
  std::unique_ptr<hotspot::CnnDetector> detector_;
  std::unique_ptr<hotspot::InferenceEngine> engine_;
};

class ModelRegistry {
 public:
  /// `config` is the detector architecture every loaded checkpoint must
  /// match (CnnDetector::load verifies the fingerprint); `engine_config`
  /// parameterizes the engine built around each installed model.
  ModelRegistry(const hotspot::CnnDetectorConfig& config,
                const hotspot::EngineConfig& engine_config);

  /// Installs a detector as the new active generation and returns that
  /// generation. The previous model stays alive until its last
  /// in-flight handle drops.
  std::uint64_t install(std::unique_ptr<hotspot::CnnDetector> detector,
                        std::string source);

  /// Constructs a detector from the registry's architecture config,
  /// loads `checkpoint_path` into it (fingerprint-verified, checksummed
  /// v2 container) and installs it. Throws CheckError/IoError on a bad
  /// checkpoint — the active model is untouched in that case.
  std::uint64_t swap_from_checkpoint(const std::string& checkpoint_path);

  /// Current model; hold the handle for the duration of one request.
  std::shared_ptr<ServingModel> acquire() const;

  std::uint64_t generation() const;

  const hotspot::CnnDetectorConfig& detector_config() const {
    return config_;
  }

 private:
  hotspot::CnnDetectorConfig config_;
  hotspot::EngineConfig engine_config_;
  mutable std::mutex mu_;
  std::shared_ptr<ServingModel> current_;
  std::uint64_t next_generation_ = 1;
};

}  // namespace hsdl::serve
