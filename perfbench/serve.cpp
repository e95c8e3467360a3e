// The serve workload: serve_closed_8clip.
//
// An in-process HotspotServer on loopback (fp32, default engine config)
// driven closed-loop by two ServeClient connections, one per tenant:
// each client sends an 8-clip request from its seeded stream and waits
// for the reply before sending the next. Latency is timed client-side per
// request; every response is checked bitwise against the serial
// predict_probability oracle.
//
// Traced runs add the ledger: the untraced p50 against codec + a round
// trip that scores nothing + a direct 8-clip score_into on the server's
// own engine.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/check.hpp"
#include "hotspot/metrics.hpp"
#include "layout/glf.hpp"
#include "layout/raster.hpp"
#include "nn/workspace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace hs = hsdl::hotspot;
namespace hl = hsdl::layout;
namespace sv = hsdl::serve;

constexpr std::size_t kReqClips = kServeClipsPerRequest;
/// |staged - untraced p50| / untraced p50 beyond which the ledger is
/// reported as not reconciled.
constexpr double kLedgerTolerance = 0.25;

/// Live serving stack. Member order is destruction order reversed:
/// clients close first, then the server drains, then the registry goes.
struct ServeState {
  std::unique_ptr<sv::ModelRegistry> registry;
  std::unique_ptr<sv::HotspotServer> server;
  std::vector<std::unique_ptr<sv::ServeClient>> clients;

  void clear() {
    for (auto& c : clients) c->bye();
    clients.clear();
    server.reset();
    registry.reset();
  }
};

ServeState set_up(const Options& opt,
                  const std::vector<std::vector<hl::Clip>>& streams) {
  ServeState s;
  s.registry = std::make_unique<sv::ModelRegistry>(model_config(),
                                                   hs::EngineConfig{});
  s.registry->swap_from_checkpoint(model_path(opt.data_dir));
  sv::ServeConfig cfg;
  cfg.session_workers = kServeClients;
  s.server = std::make_unique<sv::HotspotServer>(*s.registry, cfg);
  for (std::size_t c = 0; c < kServeClients; ++c) {
    s.clients.push_back(std::make_unique<sv::ServeClient>(
        "127.0.0.1", s.server->port(), "tenant-" + std::to_string(c)));
    // Warm-up request: grows the engine's slabs and arena.
    (void)s.clients[c]->score(
        std::span<const hl::Clip>(streams[c].data(), kReqClips));
  }
  return s;
}

struct Load {
  std::vector<double> latency_s;  ///< every request, both clients
  std::vector<Sample> samples;    ///< the same requests, with end times
  std::uint64_t requests = 0;
  std::uint64_t clips = 0;
  std::uint64_t errors = 0;      ///< requests that threw
  std::uint64_t mismatches = 0;  ///< responses differing from the oracle
  double seconds = 0.0;
};

/// Closed loop: each client sends its next request as soon as the reply
/// to the previous one arrives, until `seconds` have passed.
Load drive(ServeState& s, const std::vector<std::vector<hl::Clip>>& streams,
           const std::vector<std::vector<double>>& oracle, double threshold,
           double seconds) {
  std::vector<Load> per(kServeClients);
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      Load& l = per[c];
      const std::size_t n_req = streams[c].size() / kReqClips;
      for (std::size_t r = 0; now_s() - t0 < seconds; ++r) {
        const std::size_t first = (r % n_req) * kReqClips;
        const std::span<const hl::Clip> req(streams[c].data() + first, kReqClips);
        ++l.requests;
        try {
          const double q0 = now_s();
          const sv::ScoreResponse resp = s.clients[c]->score(req);
          const double q1 = now_s();
          l.latency_s.push_back(q1 - q0);
          l.samples.push_back({q1 - t0, q1 - q0, static_cast<double>(kReqClips)});
          l.clips += kReqClips;
          bool ok = resp.hits.size() == kReqClips;
          for (const sv::RankedHit& h : resp.hits) {
            if (h.index >= kReqClips) {
              ok = false;
              continue;
            }
            const double want = oracle[c][first + h.index];
            ok = ok && std::memcmp(&want, &h.probability, sizeof want) == 0 &&
                 h.flagged == hs::is_flagged(want, threshold);
          }
          if (!ok) ++l.mismatches;
        } catch (const std::exception&) {
          ++l.errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Load all;
  all.seconds = now_s() - t0;
  for (const Load& l : per) {
    all.latency_s.insert(all.latency_s.end(), l.latency_s.begin(), l.latency_s.end());
    all.samples.insert(all.samples.end(), l.samples.begin(), l.samples.end());
    all.requests += l.requests;
    all.clips += l.clips;
    all.errors += l.errors;
    all.mismatches += l.mismatches;
  }
  return all;
}

void merge(Load& into, const Load& l) {
  into.latency_s.insert(into.latency_s.end(), l.latency_s.begin(), l.latency_s.end());
  into.requests += l.requests;
  into.clips += l.clips;
  into.errors += l.errors;
  into.mismatches += l.mismatches;
  into.seconds += l.seconds;
}

/// Appends the time of `reps` calls of `f` to `into`.
template <typename F>
void sample(const char* span, int reps, std::vector<double>& into, F&& f) {
  for (int i = 0; i < reps; ++i) into.push_back(timed(span, f));
}

/// Times 8-clip score_into calls while the other client's thread submits
/// its own requests alongside — the concurrency the engine sees under the
/// closed loop, without the wire.
void sample_concurrent_score(hs::InferenceEngine& engine,
                             const std::vector<std::vector<hl::Clip>>& streams,
                             std::vector<double>& into) {
  std::vector<std::vector<double>> t(kServeClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> probs(kReqClips);
      const std::span<const hl::Clip> req(streams[c].data(), kReqClips);
      sample("engine.score_into", 51, t[c], [&] { engine.score_into(req, probs); });
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<double>& v : t) into.insert(into.end(), v.begin(), v.end());
}

/// Times frame + encode + decode of one score request and its response —
/// the whole codec work of one request across client and server.
void sample_codec(const std::vector<hl::Clip>& clips, double threshold,
                  std::vector<double>& into) {
  sv::ScoreRequest req;
  req.request_id = 7;
  req.clips = clips;
  sv::ScoreResponse resp;
  resp.request_id = 7;
  resp.model_generation = 1;
  std::vector<double> p(clips.size());
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = 0.125 * static_cast<double>(i);
  resp.hits = sv::rank_hits(p, threshold);
  sample("serve.codec", 101, into, [&] {
    const std::string rf = sv::encode_frame(sv::MsgType::kScoreRequest,
                                            sv::encode_score_request(req));
    const sv::Frame f1 = sv::decode_frame(rf, "bench");
    const sv::ScoreRequest r2 = sv::decode_score_request(f1.body, "bench");
    const std::string sf = sv::encode_frame(sv::MsgType::kScoreResponse,
                                            sv::encode_score_response(resp));
    const sv::Frame f2 = sv::decode_frame(sf, "bench");
    const sv::ScoreResponse s2 = sv::decode_score_response(f2.body, "bench");
    HSDL_CHECK(r2.clips.size() == s2.hits.size());
  });
}

void add_per_layer(const Options& opt, ServeState& s,
                   const std::vector<std::vector<hl::Clip>>& streams,
                   const std::vector<std::vector<double>>& oracle,
                   double threshold, Load& measured, Outcome& out,
                   std::size_t& checks) {
  std::shared_ptr<sv::ServingModel> model = s.registry->acquire();
  hs::InferenceEngine& engine = model->engine();
  const hs::CnnDetector& det = model->detector();
  const double span = std::max(1.0, opt.seconds / 10.0);

  // Untraced load, traced load and the stage timings (clients idle) take
  // turns, so host drift lands on all three alike. Tracing stays on from
  // the traced load through the stage timings, so every timed call is a
  // span in the Chrome trace.
  const std::vector<hl::Clip> req(streams[0].begin(), streams[0].begin() + kReqClips);
  const hs::EngineStats e0 = engine.stats();
  const sv::ServerStats s0 = s.server->stats();
  Load traced;
  std::vector<double> codec_s, roundtrip_s, score_s;
  for (int round = 0; round < 3; ++round) {
    merge(measured, drive(s, streams, oracle, threshold, span));
    hsdl::trace::set_enabled(true);
    for (auto& c : s.clients) c->set_tracing(true);
    merge(traced, drive(s, streams, oracle, threshold, span));
    for (auto& c : s.clients) c->set_tracing(false);
    sample_codec(req, threshold, codec_s);
    sample("serve.stats_roundtrip", 101, roundtrip_s,
           [&] { (void)s.clients[0]->stats_json(); });
    sample_concurrent_score(engine, streams, score_s);
    hsdl::trace::set_enabled(false);
  }
  const hs::EngineStats e1 = engine.stats();
  const sv::ServerStats s1 = s.server->stats();
  const double untraced_us = 1e6 * quantile(measured.latency_s, 0.5);
  const double traced_us = 1e6 * quantile(traced.latency_s, 0.5);
  const double codec = 1e6 * median(codec_s);
  const double roundtrip = 1e6 * median(roundtrip_s);
  const double score8 = 1e6 * median(score_s);

  const hsdl::fte::FeatureTensorExtractor& fx = det.extractor();
  const std::vector<std::size_t> in = det.model().input_shape();
  const std::size_t per = in[0] * in[1] * in[2];
  hl::MaskImage img;
  std::vector<float> feat(streams[0].size() * per);
  double raster = 0.0, dct = 0.0;
  hsdl::trace::set_enabled(true);
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    raster += timed("layout.rasterize_into", [&] {
      hl::rasterize_into(streams[0][i], fx.config().nm_per_px, img);
    });
    dct += timed("fte.extract_into", [&] {
      fx.extract_into(img, std::span<float>(feat.data() + i * per, per));
    });
  }
  const double raster_us = 1e6 * raster / static_cast<double>(streams[0].size());
  const double dct_us = 1e6 * dct / static_cast<double>(streams[0].size());
  hsdl::nn::WorkspaceArena arena;
  const auto forward_us = [&](std::size_t n, const char* name) {
    std::vector<double> t;
    sample(name, 31, t, [&] {
      hsdl::nn::Tensor x = hsdl::nn::Tensor::from_data(
          {n, in[0], in[1], in[2]},
          std::vector<float>(feat.begin(), feat.begin() + n * per));
      arena.recycle(det.score_batch(x, arena));
    });
    return 1e6 * median(std::move(t));
  };
  const double fwd64 = forward_us(64, "nn.score_batch") / 64.0;
  const double fwd8 = forward_us(kReqClips, "nn.score_batch_small");
  hsdl::trace::set_enabled(false);
  hsdl::trace::write_chrome_trace(opt.out_dir + "/trace_" + opt.workload + ".json");

  const double batches = static_cast<double>(e1.batches - e0.batches);
  const double stage_us = codec + roundtrip + score8;
  const double residual = (untraced_us - stage_us) / untraced_us;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(measured.requests, 1));

  out.metric("layout.gds_read_s", 0.0, "s");
  out.metric("layout.extract_clip_us", 0.0, "us");
  out.metric("layout.window_key_us", 0.0, "us");
  out.metric("layout.rasterize_us", raster_us, "us");
  out.metric("fte.dct_us", dct_us, "us");
  out.metric("nn.forward_us", fwd64, "us");
  out.metric("nn.forward_small_us", fwd8, "us");
  out.metric("engine.overhead_us",
             (score8 - fwd8) / static_cast<double>(kReqClips) - raster_us - dct_us, "us");
  out.metric("engine.batch_fill",
             batches > 0 ? static_cast<double>(e1.requests - e0.requests) / batches : 0.0,
             "count");
  out.metric("engine.flush_timeout_share",
             batches > 0 ? static_cast<double>(e1.flush_timeout - e0.flush_timeout) / batches : 0.0,
             "ratio");
  out.metric("scan.window_reuse_fraction", 0.0, "ratio");
  out.metric("scan.scored_windows", 0.0, "count");
  out.metric("scan_cache.lookup_hit_rate", 0.0, "ratio");
  out.metric("scan_cache.probe_us", 0.0, "us");
  out.metric("serve.codec_us", codec, "us");
  out.metric("serve.roundtrip_noscore_us", roundtrip, "us");
  out.metric("serve.failed_share",
             static_cast<double>((s1.errors_sent - s0.errors_sent) +
                                 (s1.busy_rejections - s0.busy_rejections)) /
                 attempted,
             "ratio");
  out.metric("ledger.stage_sum_us", stage_us, "us");
  out.metric("ledger.untraced_us", untraced_us, "us");
  out.metric("ledger.residual_share", residual, "ratio");
  out.metric("ledger.tracing_overhead_share", (traced_us - untraced_us) / untraced_us,
             "ratio");
  out.note("ledger.tolerance", kLedgerTolerance, "ratio");
  out.note("ledger.score_into_8clip_us", score8, "us");
  out.note("ledger.traced_us", traced_us, "us");
  out.note("ledger.untraced_requests", static_cast<double>(measured.requests), "count");
  out.note("trace.events", static_cast<double>(hsdl::trace::event_count()), "count");
  out.note("trace.dropped", static_cast<double>(hsdl::trace::dropped_count()), "count");
  ++checks;
  out.check(traced.mismatches == 0 && traced.errors == 0,
            "traced responses differ from the oracle or failed");
  ++checks;
  out.check(hsdl::trace::dropped_count() == 0,
            "trace buffer overflowed: the trace and tracing overhead are cut off");
  ++checks;
  out.check(std::abs(residual) <= kLedgerTolerance,
            "serve ledger does not reconcile: residual share " + std::to_string(residual));
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  // The load generator's input, and the oracle every response must match.
  std::vector<std::vector<hl::Clip>> streams(kServeClients);
  for (std::size_t c = 0; c < kServeClients; ++c)
    for (hl::LabeledClip& lc : hl::read_glf_file(serve_stream_path(opt.data_dir, c)))
      streams[c].push_back(std::move(lc.clip));
  hs::CnnDetector oracle_model(model_config());
  oracle_model.load(model_path(opt.data_dir));
  const double threshold = oracle_model.decision_threshold();
  std::vector<std::vector<double>> oracle(kServeClients);
  std::size_t flagged = 0, total = 0;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    for (const hl::Clip& clip : streams[c]) {
      oracle[c].push_back(oracle_model.predict_probability(clip));
      flagged += hs::is_flagged(oracle[c].back(), threshold) ? 1 : 0;
      ++total;
    }
  }

  ServeState s;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    s.clear();
    s = set_up(opt, streams);
  });
  out.phases.push_back({"setup", kSetupReps, kSetupReps, 0});

  std::size_t checks = 0;
  Load load;
  if (!opt.trace) {
    load = drive(s, streams, oracle, threshold, opt.seconds);
    const Sliced e2e = sliced(load.samples, load.seconds, /*concurrent=*/true);
    out.metric("windows_per_s", e2e.rate, "windows/s");
    out.metric("request_p50_ms", 1e3 * e2e.p50_s, "ms");
    out.metric("request_p99_ms", 1e3 * e2e.p99_s, "ms");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("requests", static_cast<double>(load.latency_s.size()), "count");
    out.note("samples_beyond_p99_per_slice",
             std::floor(0.01 * static_cast<double>(load.latency_s.size() / kSlices)), "count");
    out.note("clips_per_s_whole_phase", static_cast<double>(load.clips) / load.seconds,
             "clips/s");
    out.note("flagged_fraction", static_cast<double>(flagged) / static_cast<double>(total),
             "ratio");
    out.note("pool_width", static_cast<double>(opt.width), "count");
  } else {
    add_per_layer(opt, s, streams, oracle, threshold, load, out, checks);
  }
  ++checks;
  out.check(load.mismatches == 0,
            std::to_string(load.mismatches) + " responses differ from the oracle");
  out.phases.push_back({"measure", load.requests, load.requests - load.errors, load.errors});
  s.clear();
  const std::size_t failed = out.failures.size();
  out.phases.push_back({"check", checks, checks - failed, failed});
  return out;
}

}  // namespace perfbench
