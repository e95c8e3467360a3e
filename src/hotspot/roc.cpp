#include "hotspot/roc.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {
namespace {

/// p(hotspot) for every sample, computed in contiguous chunks (one
/// gather + one batched forward per chunk).
std::vector<double> hotspot_probabilities(
    HotspotCnn& model, const nn::ClassificationDataset& data) {
  std::vector<double> probs;
  probs.reserve(data.size());
  constexpr std::size_t kChunk = 128;
  nn::WorkspaceArena ws;
  for (std::size_t start = 0; start < data.size(); start += kChunk) {
    const std::size_t end = std::min(start + kChunk, data.size());
    nn::Tensor p = model.probabilities(data.gather(start, end), ws);
    for (std::size_t i = start; i < end; ++i)
      probs.push_back(static_cast<double>(p.at(i - start, kHotspotIndex)));
    ws.recycle(std::move(p));
  }
  return probs;
}

Confusion confusion_at(const std::vector<double>& probs,
                       const std::vector<bool>& is_hotspot,
                       double threshold) {
  Confusion c;
  for (std::size_t i = 0; i < probs.size(); ++i)
    c.add(is_hotspot[i], is_flagged(probs[i], threshold));
  return c;
}

std::vector<RocPoint> sweep(const std::vector<double>& probs,
                            const std::vector<bool>& is_hotspot,
                            const std::vector<double>& shifts) {
  std::vector<RocPoint> out;
  out.reserve(shifts.size());
  for (double shift : shifts) {
    const Confusion c = confusion_at(probs, is_hotspot, 0.5 - shift);
    RocPoint p;
    p.shift = shift;
    p.accuracy = c.accuracy();
    p.false_alarms = c.false_alarms();
    const auto nhs = static_cast<double>(c.fp + c.tn);
    p.fa_rate = nhs > 0 ? static_cast<double>(c.fp) / nhs : 0.0;
    out.push_back(p);
  }
  return out;
}

}  // namespace

std::vector<RocPoint> roc_curve(HotspotCnn& model,
                                const nn::ClassificationDataset& data,
                                const std::vector<double>& shifts) {
  HSDL_CHECK(!data.empty());
  const std::vector<double> probs = hotspot_probabilities(model, data);
  std::vector<bool> is_hotspot(data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    is_hotspot[i] = data.label(i) == kHotspotIndex;
  return sweep(probs, is_hotspot, shifts);
}

std::vector<RocPoint> roc_curve(const Detector& detector,
                                std::span<const layout::LabeledClip> clips,
                                const std::vector<double>& shifts) {
  HSDL_CHECK(!clips.empty());
  std::vector<layout::Clip> plain;
  plain.reserve(clips.size());
  std::vector<bool> is_hotspot;
  is_hotspot.reserve(clips.size());
  for (const layout::LabeledClip& lc : clips) {
    plain.push_back(lc.clip);
    is_hotspot.push_back(lc.label == layout::HotspotLabel::kHotspot);
  }
  const std::vector<double> probs = detector.predict_probabilities(plain);
  return sweep(probs, is_hotspot, shifts);
}

double roc_auc(HotspotCnn& model, const nn::ClassificationDataset& data,
               std::size_t sweep_points) {
  HSDL_CHECK(sweep_points >= 2);
  std::vector<double> shifts(sweep_points);
  // Shift from -0.5 (threshold 1: nothing flagged) to +0.5 (threshold 0:
  // everything flagged) covers the full curve.
  for (std::size_t i = 0; i < sweep_points; ++i)
    shifts[i] = -0.5 + static_cast<double>(i) /
                           static_cast<double>(sweep_points - 1);
  auto curve = roc_curve(model, data, shifts);
  std::sort(curve.begin(), curve.end(),
            [](const RocPoint& a, const RocPoint& b) {
              return a.fa_rate < b.fa_rate;
            });
  double auc = 0.0;
  double prev_x = 0.0, prev_y = 0.0;
  for (const RocPoint& p : curve) {
    auc += (p.fa_rate - prev_x) * 0.5 * (p.accuracy + prev_y);
    prev_x = p.fa_rate;
    prev_y = p.accuracy;
  }
  auc += (1.0 - prev_x) * 0.5 * (1.0 + prev_y);
  return auc;
}

}  // namespace hsdl::hotspot
