// Shared declarations of the scan-and-serve benchmark (see README.md).
//
// The benchmark drives the hsdl libraries only through their public
// headers. Every per-layer number is a timed call into one module's
// public function, recorded as a common/trace span from this directory's
// files; nothing inside the program is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/scanner.hpp"

namespace perfbench {

// --- Run options --------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< per-layer run instead of end-to-end
  std::string data_dir;   ///< generated inputs for this seed
  std::string out_dir;    ///< trace files of traced runs
  std::size_t width = 1;  ///< pool width: min(kMaxPoolWidth, host cores)
};

// --- Results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted / succeeded / failed in one phase of a run.
struct Phase {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Phase> phases;
  /// Report-only numbers (sample counts, ledger terms, ...): printed
  /// beside the metrics, never as one.
  std::vector<Metric> notes;
  /// Failed correctness checks; empty means correct.
  std::vector<std::string> failures;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Outcome run_scan_dense(const Options& opt);
Outcome run_scan_hier(const Options& opt);
Outcome run_serve(const Options& opt);

// --- Seeded inputs (inputs.cpp) -----------------------------------------

/// The paper's Table 1 detector: k = 32 coefficients on n = 12 blocks,
/// 16/32 conv maps, FC-250, 1200 nm windows at 2 nm/px.
hsdl::hotspot::CnnDetectorConfig model_config();

inline constexpr std::int64_t kWindow = 1200;  ///< nm
/// Set-up runs this many times per run; setup_s is the median.
inline constexpr std::size_t kSetupReps = 15;
inline constexpr std::size_t kBandRows = 16;  ///< scan band height, rows
/// Pool width of every measured phase, capped by the cores this process
/// may run on.
inline constexpr std::size_t kMaxPoolWidth = 2;
inline constexpr std::size_t kServeClients = 2;
inline constexpr std::size_t kServeClipsPerRequest = 8;

/// File names inside a seed's data directory.
std::string dense_gds_path(const std::string& dir);
std::string hier_gds_path(const std::string& dir);
std::string model_path(const std::string& dir);
std::string serve_stream_path(const std::string& dir, std::size_t client);

/// Writes every input of `seed` into `dir`: the dense flat GDS, the
/// hierarchical GDS, the briefly trained checkpoint and the serve clip
/// streams. Deterministic per seed.
void generate_inputs(std::uint64_t seed, const std::string& dir);

/// The hierarchical chip is kHierWindowsPerSide windows square. Its
/// correctness check scans the lower-left kHierCheckWindows square flat;
/// the generator puts some routing wires there.
inline constexpr std::int64_t kHierWindowsPerSide = 160;
inline constexpr std::int64_t kHierCheckWindows = 20;

/// Host canary (canary.cpp): milliseconds for a fixed kernel.
double canary_ms();

// --- Helpers (main.cpp) -------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPUs this process may run on (its affinity mask).
std::size_t host_cores();

/// Peak resident set of this process in MiB: VmHWM, which exec resets
/// (getrusage's ru_maxrss would carry the launching process's peak).
double peak_rss_mb();

/// Median of a copy of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Linear-interpolated quantile of a copy of `v`, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// One completed request: when it finished (seconds since the measured
/// phase began), how long it took, and the windows or clips it scored.
struct Sample {
  double end_s = 0.0;
  double latency_s = 0.0;
  double work = 0.0;
};

/// End-to-end figures of a measured phase, robust to host episodes that
/// cover part of a run: the phase is cut into kSlices equal slices by
/// completion time, and each slice gets its own rate and latency
/// quantiles. A shared host only ever slows a slice, so each figure is
/// read from the faster side of the slices: latencies at the
/// kSliceQuantile quantile over the slices, rates at 1 - kSliceQuantile.
/// An episode covering up to three quarters of a phase thus moves a
/// figure little, while a slower program slows every slice alike.
struct Sliced {
  double rate = 0.0;  ///< work per second
  double p50_s = 0.0;
  double p99_s = 0.0;
};
/// 8 slices of a 30 s serve phase hold about 1,100 requests each, so
/// every slice's p99 has more than 10 samples beyond it.
inline constexpr std::size_t kSlices = 8;
inline constexpr double kSliceQuantile = 0.25;
/// `concurrent`: requests overlap (several clients), so a slice's rate is
/// its work over the slice's length; otherwise requests run back to back
/// and the rate is work over the summed request time.
Sliced sliced(const std::vector<Sample>& samples, double phase_s,
              bool concurrent);

/// FNV-1a digest over a hit list (window corners + probability bits).
std::uint64_t hit_digest(const std::vector<hsdl::hotspot::ScanHit>& hits);

/// Times one call into a layer and records it as a trace span named
/// `span` (a string literal). Returns the elapsed seconds.
template <typename F>
double timed(const char* span, F&& f) {
  const std::uint64_t t0 = hsdl::trace::timestamp_ns();
  f();
  const std::uint64_t t1 = hsdl::trace::timestamp_ns();
  hsdl::trace::emit(span, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Runs `setup` `reps` times and returns the median wall time; the
/// object built by the last repetition is kept by the caller's closure.
template <typename F>
double median_setup_seconds(std::size_t reps, F&& setup) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

}  // namespace perfbench
