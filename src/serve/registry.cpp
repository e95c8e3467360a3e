#include "serve/registry.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace hsdl::serve {

ServingModel::ServingModel(std::uint64_t generation, std::string source,
                           std::unique_ptr<hotspot::CnnDetector> detector,
                           const hotspot::EngineConfig& engine_config)
    : generation_(generation),
      source_(std::move(source)),
      detector_(std::move(detector)) {
  HSDL_CHECK_MSG(detector_ != nullptr, "ServingModel needs a detector");
  engine_ = std::make_unique<hotspot::InferenceEngine>(*detector_,
                                                       engine_config);
}

ModelRegistry::ModelRegistry(const hotspot::CnnDetectorConfig& config,
                             const hotspot::EngineConfig& engine_config)
    : config_(config), engine_config_(engine_config) {
  config_.validate();
  engine_config_.validate();
}

std::uint64_t ModelRegistry::install(
    std::unique_ptr<hotspot::CnnDetector> detector, std::string source) {
  // Build the new generation outside the lock (engine construction
  // spawns threads); only the pointer swap is serialized.
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t generation = next_generation_++;
  lk.unlock();
  auto model = std::make_shared<ServingModel>(
      generation, std::move(source), std::move(detector), engine_config_);
  lk.lock();
  // Concurrent installs race to this point; generations only move
  // forward, so a slower build of an older generation never replaces a
  // newer active model.
  if (current_ == nullptr || generation > current_->generation())
    current_ = std::move(model);
  lk.unlock();
  HSDL_LOG(kInfo) << "registry: generation " << generation << " installed";
  return generation;
}

std::uint64_t ModelRegistry::swap_from_checkpoint(
    const std::string& checkpoint_path) {
  auto detector = std::make_unique<hotspot::CnnDetector>(config_);
  detector->load(checkpoint_path);  // throws on damage/mismatch
  return install(std::move(detector), checkpoint_path);
}

std::shared_ptr<ServingModel> ModelRegistry::acquire() const {
  std::lock_guard<std::mutex> lk(mu_);
  HSDL_CHECK_MSG(current_ != nullptr, "registry has no installed model");
  return current_;
}

std::uint64_t ModelRegistry::generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_ ? current_->generation() : 0;
}

}  // namespace hsdl::serve
