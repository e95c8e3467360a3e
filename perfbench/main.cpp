// hsdl_perfbench — the scan-and-serve benchmark binary.
//
//   hsdl_perfbench generate --seed N --out DIR
//   hsdl_perfbench canary
//   hsdl_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                      --data DIR --out DIR
//
// `run` prints one JSON object on its last stdout line: correct,
// attempted, failed, metrics, plus the per-phase counts, report-only
// notes and failed checks. perfbench/run.py wraps all three commands.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.hpp"
#include "common/parallel.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

std::size_t host_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Sliced sliced(const std::vector<Sample>& samples, double phase_s,
              bool concurrent) {
  const double slice_s = phase_s / static_cast<double>(kSlices);
  std::vector<std::vector<const Sample*>> slices(kSlices);
  for (const Sample& s : samples) {
    const auto i = static_cast<std::size_t>(s.end_s / slice_s);
    slices[std::min(i, kSlices - 1)].push_back(&s);
  }
  std::vector<double> rate, p50, p99;
  for (const std::vector<const Sample*>& slice : slices) {
    if (slice.empty()) continue;
    double work = 0.0, busy = 0.0;
    std::vector<double> lat;
    for (const Sample* s : slice) {
      work += s->work;
      busy += s->latency_s;
      lat.push_back(s->latency_s);
    }
    rate.push_back(work / (concurrent ? slice_s : busy));
    p50.push_back(quantile(lat, 0.50));
    p99.push_back(quantile(lat, 0.99));
  }
  return {quantile(rate, 1.0 - kSliceQuantile), quantile(p50, kSliceQuantile),
          quantile(p99, kSliceQuantile)};
}

std::uint64_t hit_digest(const std::vector<hsdl::hotspot::ScanHit>& hits) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const hsdl::hotspot::ScanHit& hit : hits) {
    mix(static_cast<std::uint64_t>(hit.window.lo.x));
    mix(static_cast<std::uint64_t>(hit.window.lo.y));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &hit.probability, sizeof bits);
    mix(bits);
  }
  return h;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

void print_outcome(const Outcome& o) {
  std::uint64_t attempted = 0, failed = 0;
  std::string phases = "[";
  for (std::size_t i = 0; i < o.phases.size(); ++i) {
    const Phase& p = o.phases[i];
    attempted += p.attempted;
    failed += p.failed;
    if (i > 0) phases += ", ";
    phases += "{\"name\": " + json_string(p.name) +
              ", \"attempted\": " + std::to_string(p.attempted) +
              ", \"succeeded\": " + std::to_string(p.succeeded) +
              ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  phases += "]";
  std::string failures = "[";
  for (std::size_t i = 0; i < o.failures.size(); ++i)
    failures += (i > 0 ? ", " : "") + json_string(o.failures[i]);
  failures += "]";
  const bool correct = o.failures.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64
              ", \"metrics\": %s, \"phases\": %s, \"notes\": %s, "
              "\"failures\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(o.metrics).c_str(), phases.c_str(),
              metrics_json(o.notes).c_str(), failures.c_str());
  std::fflush(stdout);
}

const char* arg_value(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

int usage() {
  std::fprintf(stderr,
               "usage: hsdl_perfbench generate --seed N --out DIR\n"
               "       hsdl_perfbench canary\n"
               "       hsdl_perfbench run --workload NAME --seed N "
               "--seconds S --trace 0|1 --data DIR --out DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "canary") {
      std::printf("%.6f\n", canary_ms());
      return 0;
    }
    const std::uint64_t seed =
        std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
    if (cmd == "generate") {
      const char* out = arg_value(argc, argv, "--out", nullptr);
      if (out == nullptr) return usage();
      generate_inputs(seed, out);
      return 0;
    }
    if (cmd != "run") return usage();

    Options opt;
    opt.workload = arg_value(argc, argv, "--workload", "");
    opt.seed = seed;
    opt.seconds = std::atof(arg_value(argc, argv, "--seconds", "10"));
    opt.trace = std::atoi(arg_value(argc, argv, "--trace", "0")) != 0;
    opt.data_dir = arg_value(argc, argv, "--data", "");
    opt.out_dir = arg_value(argc, argv, "--out", ".");
    if (opt.data_dir.empty() || opt.seconds <= 0.0) return usage();
    // The pool width is fixed here, never inherited from HSDL_THREADS.
    opt.width = std::min<std::size_t>(kMaxPoolWidth, host_cores());
    hsdl::set_num_threads(opt.width);

    Outcome outcome;
    if (opt.workload == "scan_dense_overlap") {
      outcome = run_scan_dense(opt);
    } else if (opt.workload == "scan_hier_array") {
      outcome = run_scan_hier(opt);
    } else if (opt.workload == "serve_closed_8clip") {
      outcome = run_serve(opt);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    print_outcome(outcome);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsdl_perfbench: %s\n", e.what());
    return 1;
  }
}
