#include "hotspot/scan_cache.hpp"

#include <sstream>
#include <string>

#include "common/check.hpp"

namespace hsdl::hotspot {
namespace {

std::string describe(const CellScanCache::Binding& b) {
  std::ostringstream os;
  os << std::hex << "{source 0x" << b.source_fingerprint << ", model 0x"
     << b.model_fingerprint << std::dec << ", window " << b.window_size
     << " nm}";
  return os.str();
}

}  // namespace

CellScanCache::CellScanCache(std::size_t max_entries)
    : max_entries_(max_entries) {
  HSDL_CHECK_MSG(max_entries > 0,
                 "scan cache: max_entries must be positive");
}

void CellScanCache::bind(const Binding& binding) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!binding_) {
    binding_ = binding;
    return;
  }
  HSDL_CHECK_MSG(*binding_ == binding,
                 "scan cache: bound to " << describe(*binding_)
                                         << ", but this scan is "
                                         << describe(binding)
                                         << "; clear() the cache to rebind");
}

std::optional<double> CellScanCache::lookup(
    const layout::WindowKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void CellScanCache::insert(const layout::WindowKey& key,
                           double probability) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.find(key) != map_.end()) return;
  if (map_.size() >= max_entries_) {
    ++stats_.rejected;
    return;
  }
  map_.emplace(key, probability);
  ++stats_.insertions;
}

CellScanCache::Stats CellScanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CellScanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void CellScanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  stats_ = Stats{};
  binding_.reset();
}

}  // namespace hsdl::hotspot
