// Serving throughput: batched InferenceEngine vs the per-clip path,
// plus the single-thread raw-speed ladder (im2col fp32 baseline vs the
// direct-kernel fp32 path vs int8) that BENCH_serving.json's
// "single_thread" section records.
//
// Scores the same clip stream three ways — (a) serial per-clip
// predict_probability, (b) the engine at its default batch size, and
// (c) an engine-routed full-chip scan vs a per-clip scan — and reports
// clips/sec plus the engine's batching and arena counters. Results go to
// stdout and BENCH_serving.json. The pool gets min(8, host_cores)
// threads — oversubscribing a small CI host used to time-slice the
// batcher/forward/caller threads against each other and report the
// engine *slower* than per-clip — and the JSON records the pool size the
// run actually used (pool_threads), not a configured constant. On a
// one-core host the engine collapses to its inline synchronous path, so
// the gate at the bottom (engine >= 0.95x per-clip, clip stream and
// scan) holds everywhere: overlap wins on real cores, and inline mode
// keeps single-core within queue-free reach of serial.
// HSDL_BENCH_SMOKE=1 shrinks the workload for CI.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/refmode.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scanner.hpp"
#include "layout/generator.hpp"

namespace {

using namespace hsdl;

hotspot::CnnDetectorConfig serving_detector_config() {
  hotspot::CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 16;
  config.feature.nm_per_px = 4.0;
  config.cnn.stage1_maps = 8;
  config.cnn.stage2_maps = 8;
  config.cnn.fc_nodes = 32;
  return config;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("HSDL_BENCH_SMOKE") != nullptr;
  const std::size_t host_cores = hardware_threads();
  // Match the pool to the host: forcing 8 threads onto fewer cores only
  // measures scheduler thrash (see the 0.82x regression this replaced).
  const std::size_t threads = std::min<std::size_t>(8, host_cores);
  set_num_threads(threads);
  // What the pool actually runs with — this is what the JSON reports.
  const std::size_t pool_threads = num_threads();
  const std::size_t n_clips = smoke ? 48 : 256;
  std::printf("serving throughput (host cores: %zu, pool threads: %zu%s)\n",
              host_cores, pool_threads, smoke ? ", SMOKE" : "");

  layout::GeneratorConfig gen_cfg;
  gen_cfg.stress = 0.45;
  layout::ClipGenerator gen(gen_cfg, 9);
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < n_clips; ++i)
    clips.push_back(gen.generate().normalized());

  hotspot::CnnDetector detector(serving_detector_config());

  // -- single-thread end-to-end latency: the raw-speed comparison.
  // One thread, per-clip serving (rasterize + DCT + forward), three
  // models over the same window stream:
  //   baseline_im2col_fp32 — reference mode: the exact pre-optimization
  //                          pipeline (per-block DCT, im2col+GEMM conv,
  //                          unfused layers, allocating rasterizer);
  //   direct_fp32          — banded DCT + direct/fused conv kernels;
  //   int8                 — the quantized serving path on top of that.
  set_num_threads(1);
  const std::size_t n_st = smoke ? 24 : 96;
  const std::span<const layout::Clip> st_clips(clips.data(), n_st);
  // Best-of-N: single ~tens-of-ms passes swing 2x on a noisy shared
  // host, and the ladder's whole point is comparing three variants of
  // the same work. The minimum over repetitions is the least-disturbed
  // measurement of each.
  const std::size_t st_reps = smoke ? 3 : 7;
  const auto time_per_clip = [&] {
    for (std::size_t i = 0; i < 4; ++i)  // warmup: plans, scratch, pages
      (void)detector.predict_probability(st_clips[i]);
    double best = 0.0;
    for (std::size_t r = 0; r < st_reps; ++r) {
      WallTimer timer;
      for (const layout::Clip& c : st_clips)
        (void)detector.predict_probability(c);
      const double s = timer.seconds();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };
  double baseline_s = 0.0;
  {
    runtime::ReferenceModeGuard reference(true);
    baseline_s = time_per_clip();
  }
  const double direct_s = time_per_clip();
  {
    std::vector<layout::LabeledClip> calibration(16);
    for (std::size_t i = 0; i < calibration.size(); ++i) {
      calibration[i].clip = clips[i];
      calibration[i].label = layout::HotspotLabel::kNonHotspot;
    }
    detector.quantize(calibration);
  }
  const double int8_s = time_per_clip();
  detector.set_use_quantized(false);  // fp32 for the engine sections below
  const double baseline_wps = static_cast<double>(n_st) / baseline_s;
  const double direct_wps = static_cast<double>(n_st) / direct_s;
  const double int8_wps = static_cast<double>(n_st) / int8_s;
  std::printf(
      "  single-thread, %zu windows:\n"
      "    im2col fp32 (baseline) %7.1f win/s\n"
      "    direct fp32            %7.1f win/s (%.2fx)\n"
      "    int8                   %7.1f win/s (%.2fx)\n",
      n_st, baseline_wps, direct_wps, direct_wps / baseline_wps, int8_wps,
      int8_wps / baseline_wps);
  set_num_threads(threads);

  // Both sides of the headline ratio run best-of-N for the same reason
  // as the single-thread ladder: one pass on a noisy shared host can
  // swing either number enough to fake (or mask) a regression.
  const std::size_t reps = smoke ? 3 : 5;

  // -- (a) per-clip serial baseline: extract + forward one clip at a time.
  std::vector<double> serial_probs(clips.size());
  double serial_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    WallTimer serial_timer;
    for (std::size_t i = 0; i < clips.size(); ++i)
      serial_probs[i] = detector.predict_probability(clips[i]);
    const double s = serial_timer.seconds();
    if (r == 0 || s < serial_s) serial_s = s;
  }
  const double serial_cps = static_cast<double>(n_clips) / serial_s;
  std::printf("  per-clip:  %6.1f clips/s (%.3f s)\n", serial_cps, serial_s);

  // -- (b) engine at batch 64: parallel extraction overlapped with the
  //        batched forward pass, arena-pooled activations (inline
  //        synchronous path when the pool is down to one worker).
  hotspot::EngineConfig engine_cfg;
  engine_cfg.max_batch = 64;
  hotspot::InferenceEngine engine(detector, engine_cfg);
  engine.score(clips);  // warmup: grow slabs and the workspace arena
  std::vector<double> engine_probs;
  double engine_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    WallTimer engine_timer;
    engine_probs = engine.score(clips);
    const double s = engine_timer.seconds();
    if (r == 0 || s < engine_s) engine_s = s;
  }
  const double engine_cps = static_cast<double>(n_clips) / engine_s;
  const hotspot::EngineStats stats = engine.stats();
  std::printf("  engine:    %6.1f clips/s (%.3f s)  speedup %.2fx\n",
              engine_cps, engine_s, engine_cps / serial_cps);
  std::printf(
      "    batches %llu (full %llu, timeout %llu, drain %llu, inline %llu)"
      "  arena: %llu allocs, %llu reuses, %zu bytes\n",
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.flush_full),
      static_cast<unsigned long long>(stats.flush_timeout),
      static_cast<unsigned long long>(stats.flush_drain),
      static_cast<unsigned long long>(stats.inline_batches),
      static_cast<unsigned long long>(stats.arena_allocations),
      static_cast<unsigned long long>(stats.arena_reuses),
      stats.arena_bytes_reserved);

  // Results must agree bitwise — a throughput number for a different
  // answer is worthless.
  for (std::size_t i = 0; i < n_clips; ++i) {
    if (engine_probs[i] != serial_probs[i]) {
      std::fprintf(stderr, "FATAL: engine diverges from serial at clip %zu\n",
                   i);
      return 1;
    }
  }

  // -- (c) full-chip scan, per-clip detector loop vs engine routing.
  const geom::Coord chip_side = smoke ? 4200 : 7800;
  Rng rng(31);
  std::vector<geom::Rect> shapes;
  const std::size_t n_shapes = smoke ? 300 : 900;
  for (std::size_t i = 0; i < n_shapes; ++i) {
    const auto w = 40 + static_cast<geom::Coord>(rng.index(400));
    const auto h = 40 + static_cast<geom::Coord>(rng.index(400));
    shapes.push_back(geom::Rect::from_xywh(
        static_cast<geom::Coord>(rng.index(
            static_cast<std::size_t>(chip_side - 440))),
        static_cast<geom::Coord>(rng.index(
            static_cast<std::size_t>(chip_side - 440))),
        w, h));
  }
  const layout::Layout chip(
      geom::Rect::from_xywh(0, 0, chip_side, chip_side), std::move(shapes));
  const hotspot::ChipScanner scanner(hotspot::ScanConfig{1200, 600});

  // Per-clip scan: a non-engine detector loop (the pre-engine scan path).
  // Route through the base-class predict_probabilities default, which
  // loops predict_probability serially.
  struct PerClipProxy final : hotspot::Detector {
    explicit PerClipProxy(const hotspot::CnnDetector& d) : inner(&d) {}
    std::string name() const override { return "per-clip-proxy"; }
    void train(std::span<const layout::LabeledClip>) override {}
    bool predict(const layout::Clip& clip) const override {
      return inner->predict(clip);
    }
    double predict_probability(const layout::Clip& clip) const override {
      return inner->predict_probability(clip);
    }
    double decision_threshold() const override {
      return inner->decision_threshold();
    }
    const hotspot::CnnDetector* inner;
  };
  PerClipProxy proxy(detector);
  // Best-of-N like the sections above: one cold scan pass on a small
  // smoke chip can swing 2x and trip the gate on pure noise.
  const auto best_scan = [&](auto&& runner) {
    hotspot::ScanReport best = runner();
    for (std::size_t r = 1; r < reps; ++r) {
      hotspot::ScanReport report = runner();
      if (report.windows_per_second() > best.windows_per_second())
        best = std::move(report);
    }
    return best;
  };
  const hotspot::ScanReport per_clip_report =
      best_scan([&] { return scanner.scan(layout::FlatSource(chip), proxy); });
  const hotspot::ScanReport engine_report =
      best_scan([&] { return scanner.scan(layout::FlatSource(chip), engine); });

  // -- (d) engine on the int8 model: same stream, quantized serving.
  // score_batch routes per call, so the already-running engine switches
  // models with the flag. Integer accumulation is exact, so the batched
  // result must equal the per-clip result bit for bit.
  detector.set_use_quantized(true);
  std::vector<double> int8_serial(clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i)
    int8_serial[i] = detector.predict_probability(clips[i]);
  engine.score(clips);  // warmup with the int8 model active
  WallTimer int8_engine_timer;
  const std::vector<double> int8_engine_probs = engine.score(clips);
  const double int8_engine_s = int8_engine_timer.seconds();
  const double int8_engine_cps = static_cast<double>(n_clips) / int8_engine_s;
  detector.set_use_quantized(false);
  for (std::size_t i = 0; i < n_clips; ++i) {
    if (int8_engine_probs[i] != int8_serial[i]) {
      std::fprintf(stderr,
                   "FATAL: int8 engine diverges from serial at clip %zu\n",
                   i);
      return 1;
    }
  }
  std::printf("  engine int8: %6.1f clips/s (%.3f s, %.2fx vs fp32 engine)\n",
              int8_engine_cps, int8_engine_s, int8_engine_cps / engine_cps);
  std::printf(
      "  scan %zu windows: per-clip %6.1f win/s  engine %6.1f win/s "
      "(%.2fx)\n",
      engine_report.windows_scanned, per_clip_report.windows_per_second(),
      engine_report.windows_per_second(),
      engine_report.windows_per_second() /
          per_clip_report.windows_per_second());

  std::ofstream os("BENCH_serving.json");
  os << "{\n  \"host_cores\": " << host_cores
     << ",\n  \"pool_threads\": " << pool_threads
     << ",\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"clips\": " << n_clips
     << ",\n  \"single_thread\": {\"windows\": " << n_st
     << ",\n    \"baseline_im2col_fp32\": {\"seconds\": " << baseline_s
     << ", \"windows_per_sec\": " << baseline_wps << "},\n"
     << "    \"direct_fp32\": {\"seconds\": " << direct_s
     << ", \"windows_per_sec\": " << direct_wps
     << ", \"speedup_vs_baseline\": " << direct_wps / baseline_wps << "},\n"
     << "    \"int8\": {\"seconds\": " << int8_s
     << ", \"windows_per_sec\": " << int8_wps
     << ", \"speedup_vs_baseline\": " << int8_wps / baseline_wps << "}}"
     << ",\n  \"per_clip\": {\"seconds\": " << serial_s
     << ", \"clips_per_sec\": " << serial_cps << "},\n"
     << "  \"engine\": {\"seconds\": " << engine_s
     << ", \"clips_per_sec\": " << engine_cps
     << ", \"max_batch\": " << engine_cfg.max_batch
     << ", \"batches\": " << stats.batches
     << ", \"flush_full\": " << stats.flush_full
     << ", \"flush_timeout\": " << stats.flush_timeout
     << ", \"flush_drain\": " << stats.flush_drain
     << ", \"inline_batches\": " << stats.inline_batches
     << ", \"arena_allocations\": " << stats.arena_allocations
     << ", \"arena_reuses\": " << stats.arena_reuses
     << ", \"arena_bytes_reserved\": " << stats.arena_bytes_reserved
     << "},\n  \"engine_int8\": {\"seconds\": " << int8_engine_s
     << ", \"clips_per_sec\": " << int8_engine_cps
     << ", \"speedup_vs_engine_fp32\": " << int8_engine_cps / engine_cps
     << "},\n  \"speedup\": " << engine_cps / serial_cps
     << ",\n  \"scan\": {\"windows\": " << engine_report.windows_scanned
     << ", \"per_clip_windows_per_sec\": "
     << per_clip_report.windows_per_second()
     << ", \"engine_windows_per_sec\": "
     << engine_report.windows_per_second()
     << ", \"speedup\": "
     << engine_report.windows_per_second() /
            per_clip_report.windows_per_second()
     << "}\n}\n";
  std::printf("wrote BENCH_serving.json\n");

  // Regression gate: the batched engine may never lose meaningfully to
  // the per-clip path it exists to replace, on any host shape. 0.95x
  // leaves room for timer noise; anything below means the queue is
  // costing more than batching recovers (exactly the bug the inline
  // collapse fixed on one-core hosts).
  const double clip_speedup = engine_cps / serial_cps;
  const double scan_speedup = engine_report.windows_per_second() /
                              per_clip_report.windows_per_second();
  bool ok = true;
  if (clip_speedup < 0.95) {
    std::fprintf(stderr,
                 "FATAL: engine clip throughput is %.3fx of per-clip "
                 "(gate: >= 0.95x)\n",
                 clip_speedup);
    ok = false;
  }
  if (scan_speedup < 0.95) {
    std::fprintf(stderr,
                 "FATAL: engine scan throughput is %.3fx of per-clip "
                 "(gate: >= 0.95x)\n",
                 scan_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
