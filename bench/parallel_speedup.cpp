// Parallel-substrate speedup benchmark.
//
// Measures (a) the single-thread speedup of the cache-blocked GEMM over
// the naive reference kernel and (b) the 1-vs-N-thread speedup of the
// parallelized hot paths: GEMM, batched feature-tensor extraction, and
// full-chip scanning. Results go to stdout and to BENCH_parallel.json in
// the working directory so runs can be compared across machines (on a
// single-core host the thread speedups are expected to be ~1.0).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/scanner.hpp"
#include "layout/generator.hpp"
#include "nn/gemm.hpp"

namespace {

using namespace hsdl;

/// Best-of-`reps` wall time of fn().
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

struct GemmResult {
  std::size_t size;
  double naive_s, blocked_1t_s, blocked_nt_s;
};

hotspot::CnnDetectorConfig scan_detector_config() {
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
  const std::size_t host_threads = hardware_threads();
  set_num_threads(0);
  // The size the pool actually runs at for the N-thread measurements —
  // earlier revisions recorded hardware_threads() even when the pool had
  // been clamped, which made cross-machine comparisons drift.
  const std::size_t pool_threads = num_threads();
  std::printf("parallel substrate speedups (host threads: %zu, pool: %zu)\n",
              host_threads, pool_threads);

  // -- GEMM: naive vs blocked (1 thread) vs blocked (N threads) --------------
  std::vector<GemmResult> gemm_results;
  for (std::size_t n : {128u, 192u, 256u, 384u}) {
    Rng rng(n);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const int reps = n <= 192 ? 20 : 10;
    GemmResult r{n, 0.0, 0.0, 0.0};
    r.naive_s = time_best(reps, [&] {
      nn::gemm_naive(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                     0.0f, c.data(), n);
    });
    set_num_threads(1);
    r.blocked_1t_s = time_best(reps, [&] {
      nn::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
               c.data(), n);
    });
    set_num_threads(0);
    r.blocked_nt_s = time_best(reps, [&] {
      nn::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
               c.data(), n);
    });
    gemm_results.push_back(r);
    std::printf(
        "  gemm %4zu: naive %8.3f ms  blocked(1t) %8.3f ms (%.2fx)  "
        "blocked(%zut) %8.3f ms (%.2fx)\n",
        n, r.naive_s * 1e3, r.blocked_1t_s * 1e3,
        r.naive_s / r.blocked_1t_s, host_threads, r.blocked_nt_s * 1e3,
        r.blocked_1t_s / r.blocked_nt_s);
  }

  // -- Batched feature-tensor extraction --------------------------------------
  layout::GeneratorConfig gen_cfg;
  gen_cfg.stress = 0.45;
  layout::ClipGenerator gen(gen_cfg, 9);
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < 32; ++i) clips.push_back(gen.generate());
  const fte::FeatureTensorExtractor extractor;
  set_num_threads(1);
  const double extract_1t = time_best(7, [&] {
    auto fts = extractor.extract_batch(clips);
  });
  set_num_threads(0);
  const double extract_nt = time_best(7, [&] {
    auto fts = extractor.extract_batch(clips);
  });
  const double extract_speedup = extract_1t / extract_nt;
  std::printf("  extract %zu clips: 1t %.3f s  %zut %.3f s (%.2fx)\n",
              clips.size(), extract_1t, pool_threads, extract_nt,
              extract_speedup);
  // Regression gate: for real batch sizes, batched extraction must never
  // run slower than the serial loop (the lock-per-extract DctPlan cache
  // once made 32-clip batches 0.91x of serial). With a real pool, 0.97
  // leaves noise room; when the pool clamps to one thread "parallel" IS
  // the serial loop plus noise, so only a gross regression (dispatch
  // overhead, re-introduced locking) should trip it.
  const double extract_floor = pool_threads > 1 ? 0.97 : 0.90;
  if (clips.size() >= 16 && extract_speedup < extract_floor) {
    std::fprintf(stderr,
                 "FATAL: parallel extraction regressed to %.3fx of serial\n",
                 extract_speedup);
    return 1;
  }

  // -- Full-chip scan ---------------------------------------------------------
  Rng rng(31);
  std::vector<geom::Rect> shapes;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto w = 40 + static_cast<geom::Coord>(rng.index(400));
    const auto h = 40 + static_cast<geom::Coord>(rng.index(400));
    shapes.push_back(
        geom::Rect::from_xywh(static_cast<geom::Coord>(rng.index(4400)),
                              static_cast<geom::Coord>(rng.index(4400)), w,
                              h));
  }
  const layout::Layout chip(geom::Rect::from_xywh(0, 0, 4800, 4800),
                            std::move(shapes));
  const layout::FlatSource source(chip);
  hotspot::CnnDetector detector(scan_detector_config());
  const hotspot::ChipScanner scanner(hotspot::ScanConfig{1200, 600});
  set_num_threads(1);
  const hotspot::ScanReport serial_report = scanner.scan(source, detector);
  const double scan_1t = serial_report.scan_seconds;
  set_num_threads(0);
  const hotspot::ScanReport parallel_report = scanner.scan(source, detector);
  const double scan_nt = parallel_report.scan_seconds;
  std::printf("  scan %zu windows: 1t %.3f s  %zut %.3f s (%.2fx)\n",
              serial_report.windows_scanned, scan_1t, host_threads, scan_nt,
              scan_1t / scan_nt);

  // -- JSON -------------------------------------------------------------------
  std::ofstream os("BENCH_parallel.json");
  os << "{\n  \"host_threads\": " << host_threads
     << ",\n  \"pool_threads\": " << pool_threads << ",\n  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemm_results.size(); ++i) {
    const GemmResult& r = gemm_results[i];
    os << "    {\"size\": " << r.size << ", \"naive_s\": " << r.naive_s
       << ", \"blocked_1t_s\": " << r.blocked_1t_s
       << ", \"blocked_nt_s\": " << r.blocked_nt_s
       << ", \"blocked_speedup\": " << r.naive_s / r.blocked_1t_s
       << ", \"thread_speedup\": " << r.blocked_1t_s / r.blocked_nt_s << "}"
       << (i + 1 < gemm_results.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"feature_extraction\": {\"clips\": " << clips.size()
     << ", \"serial_s\": " << extract_1t
     << ", \"parallel_s\": " << extract_nt
     << ", \"speedup\": " << extract_speedup << "},\n"
     << "  \"scan\": {\"windows\": " << serial_report.windows_scanned
     << ", \"serial_s\": " << scan_1t << ", \"parallel_s\": " << scan_nt
     << ", \"speedup\": " << scan_1t / scan_nt << "}\n}\n";
  std::printf("wrote BENCH_parallel.json\n");
  return 0;
}
