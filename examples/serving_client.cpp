// Serving round-trips, two modes.
//
// No arguments: stand up an in-process HotspotServer, connect a
// ServeClient over loopback, score a handful of generated clips and
// print the ranked hits — the "Serving" section of the README as a
// runnable program.
//
// With --port (and optionally --host): drive an external server
// instead, e.g. a standalone `hsdl_serve --demo` process. This is the
// CI traffic generator for the observability job:
//
//   serving_client --port 7433 --requests 40 --clips 4 --sample
//
// --sample turns on client-side tracing, so every request carries a
// sampled trace id (v3 wire) and the server records its span tree;
// --stats fetches the live hsdl-serve-stats-v1 snapshot afterwards,
// strict-parses it with common/json and prints the headline counters.
// Exits nonzero on any failed request or a malformed stats document.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "hotspot/detector.hpp"
#include "layout/generator.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace {

std::vector<hsdl::layout::Clip> make_clips(std::size_t n,
                                           std::uint64_t seed) {
  hsdl::layout::GeneratorConfig gen_cfg;
  gen_cfg.stress = 0.5;
  hsdl::layout::ClipGenerator gen(gen_cfg, seed);
  std::vector<hsdl::layout::Clip> clips;
  for (std::size_t i = 0; i < n; ++i)
    clips.push_back(gen.generate().normalized());
  return clips;
}

/// External-server mode: a burst of scored requests, optionally
/// sampled for tracing, optionally ending with a stats fetch.
int run_burst(const std::string& host, std::uint16_t port,
              std::size_t requests, std::size_t clips_per_request,
              bool sample, bool stats, const std::string& tenant) {
  using namespace hsdl;
  serve::ServeClient client(host, port, tenant);
  client.set_tracing(sample);
  const std::vector<layout::Clip> clips = make_clips(clips_per_request, 7);
  serve::RetryStats retry;
  std::uint64_t retries = 0, reconnects = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    const serve::ScoreResponse resp =
        client.score_with_retry(clips, serve::RetryPolicy{}, 0, &retry);
    if (resp.hits.size() != clips.size()) {
      std::fprintf(stderr, "request %zu: %zu hits for %zu clips\n", r,
                   resp.hits.size(), clips.size());
      return 1;
    }
    retries += retry.retries;
    reconnects += retry.reconnects;
  }
  std::printf("burst: %zu requests x %zu clips ok (%llu retries, %llu "
              "reconnects%s)\n",
              requests, clips_per_request,
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(reconnects),
              sample ? ", sampled" : "");
  if (stats) {
    // Strict parse: a malformed stats document is a bug, not a warning.
    const json::Value doc = json::parse(client.stats_json());
    const json::Value* schema = doc.find("schema");
    if (schema == nullptr || schema->as_string() != "hsdl-serve-stats-v1") {
      std::fprintf(stderr, "stats: missing/unexpected schema\n");
      return 1;
    }
    const json::Value* server = doc.find("server");
    std::printf("stats: schema %s, %.0f requests served, %.0f clips\n",
                schema->as_string().c_str(),
                server->find("requests_served")->as_number(),
                server->find("clips_scored")->as_number());
  }
  client.bye();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsdl;

  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t requests = 1;
  std::size_t clips_per_request = 6;
  bool sample = false;
  bool stats = false;
  std::string tenant = "example-tenant";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--host <h>] [--port <n>] [--requests <n>]\n"
                     "          [--clips <n>] [--tenant <t>] [--sample] "
                     "[--stats]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") host = next();
    else if (arg == "--port")
      port = static_cast<std::uint16_t>(std::atoi(next()));
    else if (arg == "--requests")
      requests = static_cast<std::size_t>(std::atol(next()));
    else if (arg == "--clips")
      clips_per_request = static_cast<std::size_t>(std::atol(next()));
    else if (arg == "--tenant") tenant = next();
    else if (arg == "--sample") sample = true;
    else if (arg == "--stats") stats = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  if (port != 0) {
    try {
      return run_burst(host, port, requests, clips_per_request, sample,
                       stats, tenant);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "burst failed: %s\n", e.what());
      return 1;
    }
  }

  // 1. A model to serve. Real deployments load a trained checkpoint via
  //    ModelRegistry::swap_from_checkpoint; fresh weights keep the
  //    example self-contained.
  hotspot::CnnDetectorConfig det_cfg;
  det_cfg.feature.blocks_per_side = 12;
  det_cfg.feature.coeffs = 16;
  det_cfg.feature.nm_per_px = 4.0;
  det_cfg.cnn.stage1_maps = 8;
  det_cfg.cnn.stage2_maps = 8;
  det_cfg.cnn.fc_nodes = 32;
  serve::ModelRegistry registry(det_cfg, hotspot::EngineConfig{});
  registry.install(std::make_unique<hotspot::CnnDetector>(det_cfg),
                   "example");

  // 2. The server: ephemeral loopback port, graceful drain on scope exit.
  serve::HotspotServer server(registry, serve::ServeConfig{});
  std::printf("server on 127.0.0.1:%u, model generation %llu\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned long long>(registry.generation()));

  // 3. A client: connect, handshake, score a batch, read ranked hits.
  const std::vector<layout::Clip> clips = make_clips(6, 7);

  serve::ServeClient client("127.0.0.1", server.port(), tenant);
  const serve::ScoreResponse response = client.score(clips);
  std::printf("scored %zu clips (request %llu, generation %llu):\n",
              response.hits.size(),
              static_cast<unsigned long long>(response.request_id),
              static_cast<unsigned long long>(response.model_generation));
  for (const serve::RankedHit& hit : response.hits)
    std::printf("  clip %2u  p(hotspot) = %.4f%s\n", hit.index,
                hit.probability, hit.flagged ? "  << flagged" : "");
  client.bye();

  server.shutdown();
  const serve::ServerStats stats_out = server.stats();
  std::printf("server drained: %llu request(s), %llu clip(s)\n",
              static_cast<unsigned long long>(stats_out.requests_served),
              static_cast<unsigned long long>(stats_out.clips_scored));
  return 0;
}
