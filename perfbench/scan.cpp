// The two scan workloads.
//
//   scan_dense_overlap  dense flat GDS -> FlatSource + InferenceEngine at
//                       stride = window/2: extraction, raster, DCT and the
//                       CNN do the work, the cache does none.
//   scan_hier_array     hierarchical GDS -> HierSource with a fresh
//                       CellScanCache per pass: key descent, probes and
//                       dedup dominate; the CNN scores the unique windows.
//
// End-to-end runs measure whole passes for the requested time and report
// windows / second over the whole phase. Traced runs add the stage
// ledger: one "staged pass" that redoes a scan through the modules'
// public functions, timing each call, plus the scanner's in-band dedup as
// its own spans show it, and reconciles the per-window sum with an
// untraced scan at pool width 1 (where stage times add).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hotspot/band_iter.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/metrics.hpp"
#include "hotspot/scan_cache.hpp"
#include "layout/gds_stream.hpp"
#include "layout/layout.hpp"
#include "layout/layout_source.hpp"
#include "layout/raster.hpp"
#include "nn/workspace.hpp"

namespace perfbench {
namespace {

namespace hs = hsdl::hotspot;
namespace hl = hsdl::layout;
using hsdl::geom::Rect;

constexpr std::size_t kChunk = 64;  // the engine's default max_batch
constexpr std::size_t kSmallBatch = kServeClipsPerRequest;
/// |staged - untraced| / untraced beyond which the ledger is reported as
/// not reconciled.
constexpr double kLedgerTolerance = 0.15;

struct Kind {
  bool hier;
  hsdl::geom::Coord stride;
};

/// Everything set-up builds. Member order is destruction order reversed:
/// the engine goes before the detector, the source before its layout.
struct ScanState {
  std::unique_ptr<hs::CnnDetector> detector;
  std::unique_ptr<hl::HierLayout> hier;
  std::unique_ptr<hl::Layout> flat;
  std::unique_ptr<hl::LayoutSource> source;
  std::unique_ptr<hs::InferenceEngine> engine;
  double gds_read_s = 0.0;

  void clear() {
    engine.reset();
    source.reset();
    flat.reset();
    hier.reset();
    detector.reset();
  }
};

ScanState set_up(const Options& opt, const Kind& kind) {
  ScanState s;
  s.detector = std::make_unique<hs::CnnDetector>(model_config());
  s.detector->load(model_path(opt.data_dir));
  const std::string gds =
      kind.hier ? hier_gds_path(opt.data_dir) : dense_gds_path(opt.data_dir);
  s.gds_read_s = timed("layout.read_hier_gds_file", [&] {
    s.hier = std::make_unique<hl::HierLayout>(hl::read_hier_gds_file(gds));
  });
  if (kind.hier) {
    s.source = std::make_unique<hl::HierSource>(*s.hier, 1);
  } else {
    s.flat = std::make_unique<hl::Layout>(s.hier->extent(), s.hier->flatten(1));
    s.source = std::make_unique<hl::FlatSource>(*s.flat);
  }
  s.engine = std::make_unique<hs::InferenceEngine>(*s.detector);
  // Warm-up: one engine batch from the first windows of the chip.
  const hs::ScanGrid grid(s.source->extent(),
                          hs::ScanConfig{kWindow, kind.stride, kBandRows});
  std::vector<hl::Clip> clips;
  for (std::size_t i = 0; i < kChunk; ++i)
    clips.push_back(s.source
                        ->extract_clip(grid.window(i / grid.cols() % grid.rows(),
                                                   i % grid.cols()))
                        .normalized());
  (void)s.engine->score(clips);
  return s;
}

struct Passes {
  std::size_t passes = 0;
  std::size_t windows = 0;
  std::size_t from_cache = 0;
  double seconds = 0.0;       ///< the whole phase, checks included
  double scan_seconds = 0.0;  ///< summed time inside ChipScanner::scan
  std::vector<Sample> samples;  ///< one per pass; latency is scan time
  bool digest_stable = true;
  hs::ScanReport first;
  hs::CellScanCache::Stats cache;  ///< summed over passes
};

/// Whole scan passes until `seconds` have elapsed (at least one). With
/// `cached`, every pass gets a fresh CellScanCache.
Passes run_passes(const hl::LayoutSource& source, hs::InferenceEngine& engine,
                  const hs::ChipScanner& scanner, bool cached,
                  double seconds) {
  Passes p;
  std::uint64_t digest = 0;
  const double t0 = now_s();
  do {
    const double pass_t0 = now_s();
    std::optional<hs::CellScanCache> cache;
    if (cached) cache.emplace();
    hs::ScanReport r =
        scanner.scan(source, engine, cache ? &*cache : nullptr);
    const double pass_s = now_s() - pass_t0;
    const std::uint64_t d = hit_digest(r.hits);
    if (p.passes == 0) {
      digest = d;
      p.first = r;
    } else if (d != digest) {
      p.digest_stable = false;
    }
    ++p.passes;
    p.windows += r.windows_scanned;
    p.from_cache += r.windows_from_cache;
    if (cache) {
      const hs::CellScanCache::Stats cs = cache->stats();
      p.cache.hits += cs.hits;
      p.cache.misses += cs.misses;
    }
    const double t = now_s();
    p.samples.push_back({t - t0, pass_s, static_cast<double>(r.windows_scanned)});
    p.scan_seconds += pass_s;
    p.seconds = t - t0;
  } while (p.seconds < seconds);
  return p;
}

// --- Correctness --------------------------------------------------------

std::uint64_t window_id(const Rect& w) {
  return (static_cast<std::uint64_t>(w.lo.x) << 32) ^
         static_cast<std::uint64_t>(w.lo.y);
}

/// A seeded sample of windows (half of them hits) re-scored one by one
/// through predict_probability must match the scan bitwise: a flagged
/// window must be a hit with the same probability bits, an unflagged one
/// must not be a hit.
void check_sample(const ScanState& s, const hs::ScanGrid& grid,
                  const hs::ScanReport& report, std::uint64_t seed,
                  Outcome& out, std::size_t& checks) {
  std::map<std::uint64_t, double> hit_prob;
  for (const hs::ScanHit& h : report.hits) hit_prob[window_id(h.window)] = h.probability;
  hsdl::Rng rng(seed * 2654435761u + 7);
  std::vector<Rect> sample;
  for (std::size_t i = 0; i < 32 && !report.hits.empty(); ++i)
    sample.push_back(report.hits[rng.index(report.hits.size())].window);
  while (sample.size() < 64)
    sample.push_back(grid.window(rng.index(grid.rows()),
                                 rng.index(grid.cols())));
  const double threshold = s.detector->decision_threshold();
  std::size_t mismatches = 0;
  for (const Rect& w : sample) {
    const double p = s.detector->predict_probability(
        s.source->extract_clip(w).normalized());
    const auto it = hit_prob.find(window_id(w));
    const bool flagged = hs::is_flagged(p, threshold);
    if (flagged != (it != hit_prob.end()) ||
        (flagged && std::memcmp(&p, &it->second, sizeof p) != 0))
      ++mismatches;
  }
  ++checks;
  out.check(mismatches == 0,
            std::to_string(mismatches) +
                " of 64 sampled windows differ from serial predict_probability");
}

/// The hierarchical scan's hits inside the lower-left check region must
/// equal a flat scan of that region's expanded geometry.
void check_flat_subregion(const ScanState& s, const hs::ChipScanner& scanner,
                          const hs::ScanReport& report, Outcome& out,
                          std::size_t& checks) {
  const Rect& ext = s.source->extent();
  const std::int64_t side = kHierCheckWindows * kWindow;
  const Rect region = Rect::from_xywh(ext.lo.x, ext.lo.y, side, side);
  std::vector<Rect> rects;
  for (const Rect& r : s.hier->flatten(1)) {
    const Rect cut = r.intersect(region);
    if (!cut.empty()) rects.push_back(cut);
  }
  const hl::Layout sub(region, std::move(rects));
  const hl::FlatSource flat(sub);
  const hs::ScanReport flat_report = scanner.scan(flat, *s.engine);
  std::vector<hs::ScanHit> expected;
  for (const hs::ScanHit& h : report.hits)
    if (region.contains(h.window)) expected.push_back(h);
  ++checks;
  out.check(flat_report.windows_scanned ==
                static_cast<std::size_t>(kHierCheckWindows * kHierCheckWindows),
            "flat sub-region scan covered an unexpected window count");
  ++checks;
  out.check(hit_digest(flat_report.hits) == hit_digest(expected),
            "hierarchical hits differ from the flat-expanded sub-region scan");
  out.note("check.subregion_hits", static_cast<double>(expected.size()),
           "count");
}

// --- Stage ledger -------------------------------------------------------

/// Seconds spent in each layer over the staged passes.
struct Ledger {
  double extract = 0, key = 0, probe = 0, insert = 0, dedup = 0;
  double raster = 0, dct = 0, forward = 0, score = 0;
  std::size_t windows = 0, keyed = 0, scored = 0;
  std::size_t engine_mismatches = 0;
  std::vector<float> small_batch;  ///< features of the first scored clips

  double stage_sum() const {
    return extract + key + probe + dedup + insert + score;
  }
};

/// Feature-extracts and scores one chunk of clips stage by stage, then
/// scores the same clips through the engine (whose excess over the
/// stages is its overhead). The two must agree bitwise.
void score_chunk(const hs::CnnDetector& det, hs::InferenceEngine& engine,
                 std::span<const hl::Clip> clips, hl::MaskImage& img,
                 std::vector<float>& feat, hsdl::nn::WorkspaceArena& arena,
                 Ledger& led) {
  const hsdl::fte::FeatureTensorExtractor& fx = det.extractor();
  const double nm_per_px = fx.config().nm_per_px;
  const std::vector<std::size_t> in = det.model().input_shape();
  const std::size_t per = in[0] * in[1] * in[2];
  feat.resize(clips.size() * per);
  for (std::size_t i = 0; i < clips.size(); ++i) {
    led.raster += timed("layout.rasterize_into",
                        [&] { hl::rasterize_into(clips[i], nm_per_px, img); });
    led.dct += timed("fte.extract_into", [&] {
      fx.extract_into(img, std::span<float>(feat.data() + i * per, per));
    });
  }
  if (led.small_batch.empty() && clips.size() >= kSmallBatch)
    led.small_batch.assign(feat.begin(), feat.begin() + kSmallBatch * per);
  hsdl::nn::Tensor x = hsdl::nn::Tensor::from_data(
      {clips.size(), in[0], in[1], in[2]}, std::move(feat));
  hsdl::nn::Tensor probs;
  led.forward += timed("nn.score_batch", [&] { probs = det.score_batch(x, arena); });
  feat = std::move(x.vec());
  std::vector<double> out(clips.size());
  led.score += timed("engine.score_into", [&] { engine.score_into(clips, out); });
  for (std::size_t i = 0; i < clips.size(); ++i)
    if (static_cast<double>(probs.at(i, hs::kHotspotIndex)) != out[i])
      ++led.engine_mismatches;
  arena.recycle(std::move(probs));
  led.scored += clips.size();
}

/// Redoes one scan through public calls, in the scanner's band order: per
/// band, reuse keys and cache probes, extraction of the unique misses,
/// scoring in engine-batch chunks and cache fill. The in-band dedup that
/// picks the misses is untimed here; scanner_dedup_s times the scanner's.
void staged_pass(const ScanState& s, hs::InferenceEngine& engine,
                 const hs::ScanGrid& grid, bool cached, Ledger& led) {
  hs::CellScanCache cache;
  hl::MaskImage img;
  std::vector<float> feat;
  hsdl::nn::WorkspaceArena arena;
  const hl::LayoutSource& src = *s.source;
  for (std::size_t b = 0; b < grid.bands(); ++b) {
    std::vector<Rect> windows;
    for (std::size_t r = grid.band_row_begin(b); r < grid.band_row_end(b); ++r)
      for (std::size_t c = 0; c < grid.cols(); ++c) windows.push_back(grid.window(r, c));
    led.windows += windows.size();
    std::vector<std::optional<hl::WindowKey>> keys(windows.size());
    std::vector<char> hit(windows.size(), 0);
    // Keys and probes cost well under a microsecond each, so they are
    // timed a band at a time: a clock read per window would weigh ~10%.
    if (cached) {
      led.key += timed("layout.window_key", [&] {
        for (std::size_t i = 0; i < windows.size(); ++i)
          keys[i] = src.window_key(windows[i]);
      });
      led.probe += timed("scan_cache.lookup", [&] {
        for (std::size_t i = 0; i < windows.size(); ++i)
          if (keys[i]) hit[i] = cache.lookup(*keys[i]).has_value();
      });
      for (const std::optional<hl::WindowKey>& k : keys) led.keyed += k ? 1 : 0;
    }
    std::vector<std::size_t> misses;
    std::unordered_map<hl::WindowKey, std::size_t, hl::WindowKeyHash> rep;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (hit[i]) continue;
      if (keys[i] && !rep.try_emplace(*keys[i], misses.size()).second) continue;
      misses.push_back(i);
    }
    std::vector<hl::Clip> clips(misses.size());
    for (std::size_t i = 0; i < misses.size(); ++i)
      led.extract += timed("layout.extract_clip", [&] {
        clips[i] = src.extract_clip(windows[misses[i]]).normalized();
      });
    for (std::size_t i = 0; i < clips.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, clips.size() - i);
      score_chunk(*s.detector, engine,
                  std::span<const hl::Clip>(clips.data() + i, n), img, feat,
                  arena, led);
    }
    led.insert += timed("scan_cache.insert", [&] {
      for (const std::size_t i : misses)
        if (keys[i]) cache.insert(*keys[i], 0.0);
    });
  }
}

/// Seconds the scanner spent on its in-band dedup in the traced pass now
/// in the trace buffer: per band, the gap from the end of its
/// scan.probe_band span to the start of its scan.extract_band span.
/// Empty when the two spans do not pair up band by band.
std::optional<double> scanner_dedup_s() {
  const hsdl::json::Value trace =
      hsdl::json::parse(hsdl::trace::chrome_trace_json());
  std::vector<double> probe_end_us, extract_begin_us;
  for (const hsdl::json::Value& e : trace.find("traceEvents")->items()) {
    const std::string& name = e.find("name")->as_string();
    const double ts = e.find("ts")->as_number();
    if (name == "scan.probe_band")
      probe_end_us.push_back(ts + e.find("dur")->as_number());
    else if (name == "scan.extract_band")
      extract_begin_us.push_back(ts);
  }
  if (probe_end_us.empty()) return 0.0;  // an uncached scan has no dedup
  if (probe_end_us.size() != extract_begin_us.size()) return std::nullopt;
  std::sort(probe_end_us.begin(), probe_end_us.end());
  std::sort(extract_begin_us.begin(), extract_begin_us.end());
  double gap_us = 0.0;
  for (std::size_t b = 0; b < probe_end_us.size(); ++b) {
    if (extract_begin_us[b] < probe_end_us[b] ||
        (b + 1 < probe_end_us.size() && extract_begin_us[b] > probe_end_us[b + 1]))
      return std::nullopt;
    gap_us += extract_begin_us[b] - probe_end_us[b];
  }
  return gap_us * 1e-6;
}

/// Median time of score_batch on the first 8 scored clips (one serve
/// request's worth), in microseconds per call.
double forward_small_us(const hs::CnnDetector& det, const Ledger& led) {
  const std::vector<std::size_t> in = det.model().input_shape();
  hsdl::nn::WorkspaceArena arena;
  std::vector<double> t;
  for (int rep = 0; rep < 31; ++rep) {
    hsdl::nn::Tensor x = hsdl::nn::Tensor::from_data(
        {kSmallBatch, in[0], in[1], in[2]}, led.small_batch);
    hsdl::nn::Tensor probs;
    t.push_back(timed("nn.score_batch_small",
                      [&] { probs = det.score_batch(x, arena); }));
    arena.recycle(std::move(probs));
  }
  return median(std::move(t)) * 1e6;
}

/// Forwards every call to an inner source inside a trace span — the
/// traced scan's view of the layout layer.
class TracedSource final : public hl::LayoutSource {
 public:
  explicit TracedSource(const hl::LayoutSource& inner) : inner_(inner) {}
  const Rect& extent() const override { return inner_.extent(); }
  std::uint64_t fingerprint() const override { return inner_.fingerprint(); }
  hl::Clip extract_clip(const Rect& window) const override {
    HSDL_TRACE_SPAN("layout.extract_clip");
    return inner_.extract_clip(window);
  }
  std::optional<hl::WindowKey> window_key(const Rect& window) const override {
    HSDL_TRACE_SPAN("layout.window_key");
    return inner_.window_key(window);
  }

 private:
  const hl::LayoutSource& inner_;
};

void add_per_layer(const Options& opt, const Kind& kind, ScanState& s,
                   const hs::ChipScanner& scanner, const hs::ScanGrid& grid,
                   double gds_read_s, Outcome& out, std::size_t& checks) {
  // Production width: engine batching and cache behaviour of one pass.
  const hs::EngineStats e0 = s.engine->stats();
  const Passes prod = run_passes(*s.source, *s.engine, scanner, kind.hier, 0.0);
  const hs::EngineStats e1 = s.engine->stats();
  const double batches = static_cast<double>(e1.batches - e0.batches);

  // Ledger at width 1: the inline engine runs every stage on this thread.
  // After one warm-up pass, rounds of an untraced scan, a traced scan and
  // a staged pass take turns, so host drift lands on all three alike, and
  // each ledger figure is a median over rounds, so a host episode that
  // starts mid-round does not decide it. Each round starts from an empty
  // trace buffer, which holds the traced and staged passes' spans; the
  // trace file keeps the last round's.
  hsdl::set_num_threads(1);
  hs::InferenceEngine serial(*s.detector);
  const TracedSource traced_source(*s.source);
  (void)run_passes(*s.source, serial, scanner, kind.hier, 0.0);
  // Per round: microseconds per window, and the two shares of untraced.
  std::vector<double> untraced_us, traced_us, stage_us, residual, overhead_share;
  std::uint64_t dropped = 0;
  bool dedup_paired = true;
  Ledger led;
  const double t0 = now_s();
  do {
    const Passes u = run_passes(*s.source, serial, scanner, kind.hier, 0.0);
    dropped += hsdl::trace::dropped_count();
    hsdl::trace::clear();
    hsdl::trace::set_enabled(true);
    const Passes t = run_passes(traced_source, serial, scanner, kind.hier, 0.0);
    const double staged_before = led.stage_sum();
    staged_pass(s, serial, grid, kind.hier, led);
    hsdl::trace::set_enabled(false);
    const std::optional<double> dedup = scanner_dedup_s();
    dedup_paired = dedup_paired && dedup.has_value();
    led.dedup += dedup.value_or(0.0);
    const double per_pass = static_cast<double>(u.windows);
    untraced_us.push_back(1e6 * u.scan_seconds / per_pass);
    traced_us.push_back(1e6 * t.scan_seconds / per_pass);
    stage_us.push_back(1e6 * (led.stage_sum() - staged_before) / per_pass);
    residual.push_back((untraced_us.back() - stage_us.back()) / untraced_us.back());
    overhead_share.push_back((traced_us.back() - untraced_us.back()) /
                             untraced_us.back());
  } while (now_s() - t0 < opt.seconds);
  hsdl::trace::set_enabled(true);
  const double small_us =
      led.small_batch.empty() ? 0.0 : forward_small_us(*s.detector, led);
  hsdl::trace::set_enabled(false);
  dropped += hsdl::trace::dropped_count();
  hsdl::set_num_threads(opt.width);
  hsdl::trace::write_chrome_trace(opt.out_dir + "/trace_" + opt.workload +
                                  ".json");

  const double scored = static_cast<double>(std::max<std::size_t>(led.scored, 1));
  const double windows = static_cast<double>(led.windows);
  const double overhead = led.score - led.raster - led.dct - led.forward;
  const double residual_share = median(residual);

  out.metric("layout.gds_read_s", gds_read_s, "s");
  out.metric("layout.extract_clip_us", 1e6 * led.extract / scored, "us");
  out.metric("layout.window_key_us",
             kind.hier ? 1e6 * led.key / windows : 0.0, "us");
  out.metric("layout.rasterize_us", 1e6 * led.raster / scored, "us");
  out.metric("fte.dct_us", 1e6 * led.dct / scored, "us");
  out.metric("nn.forward_us", 1e6 * led.forward / scored, "us");
  out.metric("nn.forward_small_us", small_us, "us");
  out.metric("engine.overhead_us", 1e6 * overhead / scored, "us");
  out.metric("engine.batch_fill",
             batches > 0 ? static_cast<double>(e1.requests - e0.requests) / batches : 0.0,
             "count");
  out.metric("engine.flush_timeout_share",
             batches > 0 ? static_cast<double>(e1.flush_timeout - e0.flush_timeout) / batches : 0.0,
             "ratio");
  out.metric("scan.window_reuse_fraction",
             static_cast<double>(prod.from_cache) / static_cast<double>(prod.windows),
             "ratio");
  out.metric("scan.scored_windows",
             static_cast<double>(prod.windows - prod.from_cache), "count");
  const double probes = static_cast<double>(prod.cache.hits + prod.cache.misses);
  out.metric("scan_cache.lookup_hit_rate",
             probes > 0 ? static_cast<double>(prod.cache.hits) / probes : 0.0, "ratio");
  out.metric("scan_cache.probe_us",
             led.keyed > 0 ? 1e6 * led.probe / static_cast<double>(led.keyed) : 0.0,
             "us");
  out.metric("serve.codec_us", 0.0, "us");
  out.metric("serve.roundtrip_noscore_us", 0.0, "us");
  out.metric("serve.failed_share", 0.0, "ratio");
  out.metric("ledger.stage_sum_us", median(stage_us), "us");
  out.metric("ledger.untraced_us", median(untraced_us), "us");
  out.metric("ledger.residual_share", residual_share, "ratio");
  out.metric("ledger.tracing_overhead_share", median(overhead_share), "ratio");

  out.note("ledger.tolerance", kLedgerTolerance, "ratio");
  out.note("ledger.scanner_dedup_us", 1e6 * led.dedup / windows, "us");
  out.note("ledger.cache_insert_us",
           led.keyed > 0 ? 1e6 * led.insert / scored : 0.0, "us");
  out.note("ledger.rounds", static_cast<double>(residual.size()), "count");
  out.note("ledger.traced_us", median(traced_us), "us");
  out.note("trace.events", static_cast<double>(hsdl::trace::event_count()), "count");
  out.note("trace.dropped", static_cast<double>(dropped), "count");
  ++checks;
  out.check(dropped == 0,
            "trace buffer overflowed: the trace and tracing overhead are cut off");
  ++checks;
  out.check(dedup_paired,
            "scanner probe and extract spans do not pair up band by band");
  ++checks;
  out.check(led.engine_mismatches == 0,
            "staged raster+DCT+score_batch differs from the engine on " +
                std::to_string(led.engine_mismatches) + " clips");
  ++checks;
  out.check(led.windows % prod.first.windows_scanned == 0,
            "staged pass walked a different window grid than the scanner");
  ++checks;
  out.check(std::abs(residual_share) <= kLedgerTolerance,
            "stage ledger does not reconcile: residual share " +
                std::to_string(residual_share));
}

Outcome run_scan(const Options& opt, const Kind& kind) {
  Outcome out;
  ScanState s;
  std::vector<double> gds_reads;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    s.clear();  // tear down the previous repetition first
    s = set_up(opt, kind);
    gds_reads.push_back(s.gds_read_s);
  });
  out.phases.push_back({"setup", kSetupReps, kSetupReps, 0});

  const hs::ChipScanner scanner(hs::ScanConfig{kWindow, kind.stride, kBandRows});
  const hs::ScanGrid grid(s.source->extent(), scanner.config());
  std::size_t checks = 0;
  std::size_t windows_measured = 0;

  if (!opt.trace) {
    const Passes p = run_passes(*s.source, *s.engine, scanner, kind.hier, opt.seconds);
    windows_measured = p.windows;
    // A scan's request is one whole-chip pass. A slice holds about ten
    // (dense) to a hundred (hier) passes, so its p99 is near its slowest.
    const Sliced e2e = sliced(p.samples, p.seconds, /*concurrent=*/false);
    out.metric("windows_per_s", e2e.rate, "windows/s");
    out.metric("request_p50_ms", 1e3 * e2e.p50_s, "ms");
    out.metric("request_p99_ms", 1e3 * e2e.p99_s, "ms");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("requests", static_cast<double>(p.samples.size()), "count");
    out.note("samples_beyond_p99_per_slice",
             std::floor(0.01 * static_cast<double>(p.samples.size() / kSlices)), "count");
    out.note("windows_per_s_whole_phase",
             static_cast<double>(p.windows) / p.seconds, "windows/s");
    out.note("passes", static_cast<double>(p.passes), "count");
    out.note("windows_per_pass", static_cast<double>(p.first.windows_scanned), "count");
    out.note("flagged_fraction", p.first.flagged_fraction(), "ratio");
    out.note("reuse_fraction",
             static_cast<double>(p.from_cache) / static_cast<double>(p.windows), "ratio");
    out.note("pool_width", static_cast<double>(opt.width), "count");
    ++checks;
    out.check(p.digest_stable, "hit digest changed between passes");
    ++checks;
    out.check(p.first.windows_scanned == grid.rows() * grid.cols(),
              "scan covered an unexpected window count");
    if (kind.hier)
      check_flat_subregion(s, scanner, p.first, out, checks);
    else
      check_sample(s, grid, p.first, opt.seed, out, checks);
  } else {
    add_per_layer(opt, kind, s, scanner, grid, median(gds_reads), out, checks);
    windows_measured = grid.rows() * grid.cols();
  }
  out.phases.push_back({"measure", windows_measured, windows_measured, 0});
  const std::size_t failed = out.failures.size();
  out.phases.push_back({"check", checks, checks - failed, failed});
  return out;
}

}  // namespace

Outcome run_scan_dense(const Options& opt) {
  return run_scan(opt, Kind{false, kWindow / 2});
}

Outcome run_scan_hier(const Options& opt) {
  return run_scan(opt, Kind{true, kWindow});
}

}  // namespace perfbench
