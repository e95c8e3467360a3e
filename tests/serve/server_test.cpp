// HotspotServer loopback tests: concurrent clients bitwise-identical to
// the serial per-clip oracle, ranked-hit ordering, hot-swap under load
// (in-flight requests complete against the model that scored them),
// corrupt frames killing the session but not the server, request-cap
// and unscorable-window rejections that leave the session usable, and
// graceful drain.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "hotspot/detector.hpp"
#include "layout/generator.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace hsdl::serve {
namespace {

hotspot::CnnDetectorConfig small_config() {
  hotspot::CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 8;
  config.feature.nm_per_px = 4.0;
  config.cnn.stage1_maps = 4;
  config.cnn.stage2_maps = 4;
  config.cnn.fc_nodes = 8;
  return config;
}

std::vector<layout::Clip> make_clips(std::size_t n, std::uint64_t seed) {
  layout::GeneratorConfig gen_cfg;
  gen_cfg.stress = 0.4;
  layout::ClipGenerator gen(gen_cfg, seed);
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < n; ++i)
    clips.push_back(gen.generate().normalized());
  return clips;
}

/// Pins the global pool to `n` threads for one test, restoring on exit.
struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) : saved(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved); }
  std::size_t saved;
};

/// A detector with weights distinguishable from the default seed's, so
/// a hot-swap visibly changes every probability.
std::unique_ptr<hotspot::CnnDetector> make_detector(std::uint64_t seed) {
  hotspot::CnnDetectorConfig config = small_config();
  config.seed = seed;
  return std::make_unique<hotspot::CnnDetector>(config);
}

TEST(ServerTest, ConcurrentClientsMatchSerialOracleBitwise) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  const std::shared_ptr<ServingModel> oracle = registry.acquire();

  ServeConfig config;
  config.session_workers = 4;
  HotspotServer server(registry, config);

  constexpr std::size_t kClients = 4;
  std::vector<std::vector<layout::Clip>> inputs;
  for (std::size_t c = 0; c < kClients; ++c)
    inputs.push_back(make_clips(6, 100 + c));

  std::vector<std::vector<double>> outputs(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      ServeClient client("127.0.0.1", server.port(),
                         "tenant-" + std::to_string(c));
      outputs[c] = client.score_probabilities(inputs[c]);
      client.bye();
    });
  for (std::thread& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    const std::vector<double> expected =
        oracle->detector().predict_probabilities(inputs[c]);
    ASSERT_EQ(outputs[c].size(), expected.size()) << "client " << c;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(outputs[c][i], expected[i])  // bitwise
          << "client " << c << " clip " << i;
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_accepted, kClients);
  EXPECT_EQ(stats.requests_served, kClients);
  EXPECT_EQ(stats.clips_scored, kClients * 6u);
  EXPECT_EQ(stats.errors_sent, 0u);
}

TEST(ServerTest, ResponsesArriveRankedByProbability) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  ServeClient client("127.0.0.1", server.port(), "rank");
  const std::vector<layout::Clip> clips = make_clips(8, 5);
  const ScoreResponse response = client.score(clips);
  ASSERT_EQ(response.hits.size(), clips.size());
  const double threshold = registry.acquire()->detector().decision_threshold();
  std::vector<bool> seen(clips.size(), false);
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    const RankedHit& h = response.hits[i];
    ASSERT_LT(h.index, clips.size());
    EXPECT_FALSE(seen[h.index]) << "duplicate index in ranking";
    seen[h.index] = true;
    EXPECT_EQ(h.flagged, hotspot::is_flagged(h.probability, threshold));
    if (i > 0)
      EXPECT_GE(response.hits[i - 1].probability, h.probability)
          << "ranking violated at position " << i;
  }
  client.bye();
}

TEST(ServerTest, HotSwapUnderLoadScoresEachRequestWithOneModel) {
  // Two generations with different weights; per-generation oracles.
  auto gen1 = make_detector(1);
  auto gen2 = make_detector(2);
  const std::string ckpt = ::testing::TempDir() + "/serve_swap.ckpt";
  gen2->save(ckpt);

  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(std::move(gen1), "gen1");
  const std::shared_ptr<ServingModel> oracle1 = registry.acquire();

  ServeConfig config;
  config.session_workers = 4;
  HotspotServer server(registry, config);

  const std::vector<layout::Clip> clips = make_clips(12, 77);
  const std::unique_ptr<hotspot::CnnDetector> oracle2 = make_detector(2);
  const std::vector<double> expected1 =
      oracle1->detector().predict_probabilities(clips);
  const std::vector<double> expected2 = oracle2->predict_probabilities(clips);

  // Several scoring clients hammer the server while another client hot
  // swaps mid-stream. Every response must be wholly one generation's
  // work: whatever generation it reports, the probabilities must match
  // that generation's oracle bitwise — a request that straddled the
  // swap keeps its acquired handle and completes against the old model.
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kRounds = 6;
  std::vector<std::vector<ScoreResponse>> responses(kClients);
  std::vector<std::thread> scorers;
  for (std::size_t c = 0; c < kClients; ++c)
    scorers.emplace_back([&, c] {
      ServeClient client("127.0.0.1", server.port(),
                         "load-" + std::to_string(c));
      for (std::size_t r = 0; r < kRounds; ++r)
        responses[c].push_back(client.score(clips));
      client.bye();
    });
  std::thread swapper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ServeClient client("127.0.0.1", server.port(), "admin");
    const std::uint64_t generation = client.swap_model(ckpt);
    EXPECT_EQ(generation, 2u);
    client.bye();
  });
  for (std::thread& t : scorers) t.join();
  swapper.join();

  bool saw_gen1 = false, saw_gen2 = false;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const ScoreResponse& response : responses[c]) {
      ASSERT_TRUE(response.model_generation == 1 ||
                  response.model_generation == 2);
      const std::vector<double>& expected =
          response.model_generation == 1 ? expected1 : expected2;
      (response.model_generation == 1 ? saw_gen1 : saw_gen2) = true;
      ASSERT_EQ(response.hits.size(), expected.size());
      for (const RankedHit& h : response.hits)
        EXPECT_EQ(h.probability, expected[h.index])  // bitwise
            << "generation " << response.model_generation << " clip "
            << h.index;
    }
  }
  EXPECT_TRUE(saw_gen1);  // the pre-swap rounds
  // Post-swap requests land on generation 2.
  ServeClient after("127.0.0.1", server.port(), "after");
  const ScoreResponse response = after.score(clips);
  EXPECT_EQ(response.model_generation, 2u);
  EXPECT_TRUE(saw_gen2 || response.model_generation == 2u);
  after.bye();
  EXPECT_EQ(registry.generation(), 2u);
  std::remove(ckpt.c_str());
}

TEST(ServerTest, CorruptFrameKillsSessionNotServer) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  {
    // Raw socket: handshake, then a frame with a flipped payload bit.
    Socket raw = Socket::connect("127.0.0.1", server.port());
    send_frame(raw, encode_frame(MsgType::kHello, encode_hello(Hello{})));
    std::string buf;
    ASSERT_TRUE(recv_frame(raw, buf, "test"));
    ASSERT_EQ(decode_frame(buf, "test").type, MsgType::kHelloAck);

    ScoreRequest corrupt_req;
    corrupt_req.request_id = 1;
    corrupt_req.clips = make_clips(1, 3);
    std::string frame = encode_frame(MsgType::kScoreRequest,
                                     encode_score_request(corrupt_req));
    frame[6] = static_cast<char>(frame[6] ^ 0x10);  // payload bit-flip
    send_frame(raw, frame);
    ASSERT_TRUE(recv_frame(raw, buf, "test"));
    const Frame err = decode_frame(buf, "test");
    ASSERT_EQ(err.type, MsgType::kError);
    const ErrorMsg msg = decode_error(err.body, "test");
    EXPECT_EQ(msg.code, ErrorCode::kBadFrame);
    // The error is positioned: the CRC caught it.
    EXPECT_NE(msg.message.find("byte"), std::string::npos);
    // The server closes the poisoned session...
    EXPECT_FALSE(recv_frame(raw, buf, "test"));
  }

  // ...but keeps serving new ones.
  ServeClient client("127.0.0.1", server.port(), "survivor");
  const std::vector<layout::Clip> clips = make_clips(3, 9);
  EXPECT_EQ(client.score(clips).hits.size(), clips.size());
  client.bye();
  EXPECT_GE(server.stats().errors_sent, 1u);
}

TEST(ServerTest, OversizedRequestRejectedWithoutKillingSession) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  ServeConfig config;
  config.max_clips_per_request = 4;
  config.tenant_quota_clips = 4;
  HotspotServer server(registry, config);

  ServeClient client("127.0.0.1", server.port(), "greedy");
  const std::vector<layout::Clip> big = make_clips(5, 21);
  try {
    client.score(big);
    FAIL() << "oversized request was accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTooManyClips);
  }
  // Per-request rejection: the same session serves a conforming request.
  const std::vector<layout::Clip> ok = make_clips(4, 23);
  EXPECT_EQ(client.score(ok).hits.size(), ok.size());
  client.bye();
}

TEST(ServerTest, UnscorableClipWindowRejectedWithoutKillingServer) {
  // Pool width 2: the engine runs its batcher thread, so a bad window
  // must be rejected before it can reach that thread.
  ThreadCountGuard guard(2);
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  ServeConfig config;
  config.max_clips_per_request = 4;
  config.busy_max_inflight_clips = 4;
  HotspotServer server(registry, config);

  ServeClient bad("127.0.0.1", server.port(), "bad");
  std::vector<layout::Clip> clips = make_clips(4, 29);
  clips[2].window = geom::Rect::from_xywh(0, 0, 1200, 1000);  // 300x250 px
  try {
    bad.score(clips);
    FAIL() << "a non-square clip window was scored";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
  }
  EXPECT_EQ(server.tenant_inflight("bad"), 0u);

  // Another session still scores a request at the whole in-flight
  // ceiling, so the rejected request returned its reservation.
  ServeClient good("127.0.0.1", server.port(), "good");
  const std::vector<layout::Clip> ok = make_clips(4, 31);
  EXPECT_EQ(good.score(ok).hits.size(), ok.size());
  // The rejected session stays usable too.
  EXPECT_EQ(bad.score(ok).hits.size(), ok.size());
  good.bye();
  bad.bye();
}

TEST(ServerTest, SwapWithBadCheckpointFailsWithoutDroppingActiveModel) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  ServeClient client("127.0.0.1", server.port(), "admin");
  try {
    client.swap_model(::testing::TempDir() + "/no_such_checkpoint.ckpt");
    FAIL() << "swap to a missing checkpoint was accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSwapFailed);
  }
  EXPECT_EQ(registry.generation(), 1u);
  // The active model still serves.
  const std::vector<layout::Clip> clips = make_clips(2, 25);
  EXPECT_EQ(client.score(clips).hits.size(), clips.size());
  client.bye();
}

TEST(ServerTest, GracefulShutdownDrainsIdleSessionsAndRefusesNewWork) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  auto server = std::make_unique<HotspotServer>(registry, ServeConfig{});
  const std::uint16_t port = server->port();

  // An idle connected client: drain must wake its blocked session read
  // and close cleanly rather than hang shutdown.
  ServeClient idle("127.0.0.1", port, "idle");
  const std::vector<layout::Clip> clips = make_clips(2, 27);
  EXPECT_EQ(idle.score(clips).hits.size(), clips.size());

  server->shutdown();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.requests_served, 1u);

  // After drain the idle client's next request fails (server closed the
  // stream), and fresh connections are refused.
  EXPECT_THROW(idle.score(clips), CheckError);
  EXPECT_THROW(ServeClient("127.0.0.1", port, "late"), CheckError);
  server.reset();  // double-shutdown via destructor is a no-op
}

}  // namespace
}  // namespace hsdl::serve
