// hsdl_serve — the hotspot-detection serving front-end binary.
//
// Serves a trained CnnDetector over the framed loopback protocol
// (DESIGN.md §13). Two ways to get a model:
//
//   hsdl_serve --checkpoint model.hsdl [--port 7433] [architecture flags]
//   hsdl_serve --demo [--port 7433]
//
// --demo trains a small detector on synthetic generator clips so the
// server can be exercised without a checkpoint. The architecture flags
// (--blocks, --coeffs, --nm-per-px, --stage1, --stage2, --fc) must
// match the checkpoint being loaded — CnnDetector::load verifies the
// fingerprint and rejects a mismatch. SIGINT/SIGTERM trigger a graceful
// drain; SIGQUIT dumps the flight recorder (last N requests) without
// stopping the server.
//
// Observability (DESIGN.md §15): --stats-interval-ms enables metrics
// and appends one hsdl-serve-stats-v1 JSON line per interval to the
// --stats-jsonl path (default serve_stats.jsonl); --trace enables span
// recording and writes one Chrome trace JSON on exit; --flight-size /
// --flight-dump size the always-on flight recorder and name its dump
// file.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/run_report.hpp"
#include "common/trace.hpp"
#include "hotspot/detector.hpp"
#include "layout/dataset.hpp"
#include "layout/generator.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;
void handle_signal(int) { g_stop = 1; }
void handle_dump_signal(int) { g_dump = 1; }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--checkpoint <path> | --demo) [options]\n"
      "  --port <n>        listen port (default 7433, 0 = ephemeral)\n"
      "  --workers <n>     session workers (default 4)\n"
      "  --telemetry <p>   per-request JSONL stream path\n"
      "  --blocks <n>      feature blocks per side (default 12)\n"
      "  --coeffs <n>      DCT coefficients per block (default 32)\n"
      "  --nm-per-px <f>   raster pitch in nm (default 4)\n"
      "  --stage1 <n> --stage2 <n> --fc <n>   CNN widths\n"
      "reliability (DESIGN.md §14):\n"
      "  --session-timeout-ms <n>  reap sessions idle past n ms (0 = never)\n"
      "  --max-clips <n>           per-request clip cap (default 65536)\n"
      "  --busy-max-clips <n>      in-flight clip ceiling before kBusy\n"
      "                            (must admit a maximal request)\n"
      "  --retry-after-ms <n>      back-off hint on kBusy (default 25)\n"
      "observability (DESIGN.md §15):\n"
      "  --stats-interval-ms <n>   enable metrics; append one stats JSON\n"
      "                            line per interval (0 = off)\n"
      "  --stats-jsonl <p>         stats line destination (default\n"
      "                            serve_stats.jsonl)\n"
      "  --trace <p>               enable span recording; write a Chrome\n"
      "                            trace to <p> on exit\n"
      "  --flight-size <n>         flight recorder depth (default 256)\n"
      "  --flight-dump <p>         flight recorder dump path (SIGQUIT,\n"
      "                            drain, session-fatal errors)\n"
      "chaos runs: set HSDL_FAULT_SPEC / HSDL_FAULT_SEED in the env\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsdl;

  std::string checkpoint;
  bool demo = false;
  std::uint16_t port = 7433;
  std::uint32_t stats_interval_ms = 0;
  std::string stats_jsonl = "serve_stats.jsonl";
  std::string trace_path;
  serve::ServeConfig serve_cfg;
  hotspot::CnnDetectorConfig det_cfg;
  det_cfg.feature.blocks_per_side = 12;
  det_cfg.feature.coeffs = 32;
  det_cfg.feature.nm_per_px = 4.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--checkpoint") {
      checkpoint = next();
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--workers") {
      serve_cfg.session_workers =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--telemetry") {
      serve_cfg.telemetry_path = next();
    } else if (arg == "--blocks") {
      det_cfg.feature.blocks_per_side =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--coeffs") {
      det_cfg.feature.coeffs = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--nm-per-px") {
      det_cfg.feature.nm_per_px = std::atof(next());
    } else if (arg == "--stage1") {
      det_cfg.cnn.stage1_maps = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--stage2") {
      det_cfg.cnn.stage2_maps = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--fc") {
      det_cfg.cnn.fc_nodes = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--max-clips") {
      serve_cfg.max_clips_per_request =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--session-timeout-ms") {
      serve_cfg.session_timeout_ms =
          static_cast<std::uint32_t>(std::atol(next()));
    } else if (arg == "--busy-max-clips") {
      serve_cfg.busy_max_inflight_clips =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--retry-after-ms") {
      serve_cfg.retry_after_ms = static_cast<std::uint32_t>(std::atol(next()));
    } else if (arg == "--stats-interval-ms") {
      stats_interval_ms = static_cast<std::uint32_t>(std::atol(next()));
    } else if (arg == "--stats-jsonl") {
      stats_jsonl = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--flight-size") {
      serve_cfg.flight_recorder_size =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--flight-dump") {
      serve_cfg.flight_dump_path = next();
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (checkpoint.empty() && !demo) {
    usage(argv[0]);
    return 2;
  }

  try {
    if (hsdl::fault::arm_from_env())
      HSDL_LOG(kWarn) << "fault injection armed from HSDL_FAULT_SPEC "
                         "(chaos run)";
    serve_cfg.port = port;
    serve::ModelRegistry registry(det_cfg, hotspot::EngineConfig{});
    if (!checkpoint.empty()) {
      registry.swap_from_checkpoint(checkpoint);
    } else {
      // Demo model: a short biased-learning train on synthetic clips so
      // the binary is self-contained. Deliberately tiny — the demo
      // exists to exercise the serving path, not to produce a good
      // detector (use --checkpoint for that).
      HSDL_LOG(kInfo) << "training demo model on synthetic clips";
      hotspot::CnnDetectorConfig demo_cfg = det_cfg;
      demo_cfg.biased.rounds = 1;
      demo_cfg.biased.initial.max_iters = 150;
      demo_cfg.biased.initial.validate_every = 50;
      demo_cfg.biased.initial.patience = 2;
      layout::GeneratorConfig gen_cfg;
      gen_cfg.stress = 0.45;
      layout::ClipGenerator gen(gen_cfg, 17);
      std::vector<layout::LabeledClip> train;
      for (std::size_t i = 0; i < 48; ++i) {
        layout::LabeledClip lc;
        lc.clip = gen.generate().normalized();
        lc.label = i % 3 == 0 ? layout::HotspotLabel::kHotspot
                              : layout::HotspotLabel::kNonHotspot;
        train.push_back(std::move(lc));
      }
      auto detector = std::make_unique<hotspot::CnnDetector>(demo_cfg);
      detector->train(train);
      registry.install(std::move(detector), "demo");
    }

    // Observability switches: metrics feed the stats surface (and the
    // periodic JSONL line); tracing records spans for the Chrome trace
    // written on exit. Both default off — the hot path then pays one
    // relaxed load per instrument.
    if (stats_interval_ms > 0) metrics::set_enabled(true);
    if (!trace_path.empty()) trace::set_enabled(true);

    serve::HotspotServer server(registry, serve_cfg);
    std::printf("hsdl_serve: listening on 127.0.0.1:%u (generation %llu)\n",
                static_cast<unsigned>(server.port()),
                static_cast<unsigned long long>(registry.generation()));
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGQUIT, handle_dump_signal);
    telemetry::JsonlStream stats_stream(
        stats_interval_ms > 0 ? stats_jsonl : std::string());
    std::uint64_t slept_ms = 0;
    while (!g_stop) {
      struct timespec ts {0, 100 * 1000 * 1000};
      nanosleep(&ts, nullptr);
      slept_ms += 100;
      if (g_dump) {
        // SIGQUIT: dump the flight recorder without stopping; the
        // handler only sets a flag (dumping is not async-signal-safe).
        g_dump = 0;
        server.dump_flight_recorder("signal");
      }
      if (stats_interval_ms > 0 && slept_ms >= stats_interval_ms) {
        slept_ms = 0;
        // stats_json() is strict-parseable by design; re-parsing here
        // keeps JsonlStream's one-object-per-line contract.
        stats_stream.emit(json::parse(server.stats_json()));
      }
    }
    std::printf("hsdl_serve: draining...\n");
    server.shutdown();
    if (stats_interval_ms > 0)
      stats_stream.emit(json::parse(server.stats_json()));
    if (!trace_path.empty()) {
      trace::write_chrome_trace(trace_path);
      std::printf("hsdl_serve: wrote trace (%zu spans) to %s\n",
                  trace::event_count(), trace_path.c_str());
    }
    const serve::ServerStats stats = server.stats();
    std::printf(
        "hsdl_serve: served %llu requests / %llu clips across %llu "
        "sessions (%llu swaps, %llu errors)\n",
        static_cast<unsigned long long>(stats.requests_served),
        static_cast<unsigned long long>(stats.clips_scored),
        static_cast<unsigned long long>(stats.sessions_accepted),
        static_cast<unsigned long long>(stats.swaps),
        static_cast<unsigned long long>(stats.errors_sent));
    std::printf(
        "hsdl_serve: reliability: %llu shed (%llu deadline), %llu "
        "internal, %llu reaped\n",
        static_cast<unsigned long long>(stats.busy_rejections),
        static_cast<unsigned long long>(stats.deadline_rejections),
        static_cast<unsigned long long>(stats.internal_errors),
        static_cast<unsigned long long>(stats.sessions_reaped));
    if (hsdl::fault::armed())
      std::printf("hsdl_serve: chaos: %llu faults fired\n",
                  static_cast<unsigned long long>(hsdl::fault::total_fires()));
    return 0;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "hsdl_serve: %s\n", e.what());
    return 1;
  }
}
