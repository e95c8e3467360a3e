// Chaos suite (DESIGN.md §14): the serving stack under injected faults.
// Every test arms a deterministic fault plan (seedable via
// HSDL_FAULT_SEED for CI sweeps), breaks something — a connection, an
// allocation, a score, a deadline — and asserts the containment
// invariants: the server stays alive, tenant quotas balance back to
// zero, sessions that should survive survive, and clients eventually
// succeed through retry.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
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

std::unique_ptr<hotspot::CnnDetector> make_detector(std::uint64_t seed) {
  hotspot::CnnDetectorConfig config = small_config();
  config.seed = seed;
  return std::make_unique<hotspot::CnnDetector>(config);
}

/// One-spec plan at the suite's seed (HSDL_FAULT_SEED can sweep it).
fault::Plan plan_of(fault::Spec spec) {
  fault::Plan plan;
  plan.specs.push_back(std::move(spec));
  plan.seed = fault::seed_from_env(1);
  return plan;
}

TEST(ChaosTest, DroppedResponseSendReleasesQuotaAndServerSurvives) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  // An allocation fault makes the request fail mid-handling while the
  // tenant's quota is charged; the error-frame send then hits a dropped
  // connection, so the session dies abnormally with the quota still
  // held — exactly the path the quota guard exists for.
  fault::Plan plan = plan_of(
      {"engine.score.alloc", fault::Kind::kAllocFail, 1.0, 0.0, 0, 1});
  // Let the HelloAck send through; kill the next server send.
  plan.specs.push_back({"serve.net.send", fault::Kind::kFail, 1.0, 0.0,
                        /*start_after=*/1, /*max_fires=*/1});
  fault::ScopedPlan armed(std::move(plan));

  ServeClient client("127.0.0.1", server.port(), "chaos");
  const std::vector<layout::Clip> clips = make_clips(3, 7);
  EXPECT_THROW(client.score(clips), CheckError);

  // Abnormal session death released the tenant's in-flight budget...
  EXPECT_EQ(server.tenant_inflight("chaos"), 0u);
  // ...and the server is still serving (both fault specs are spent).
  ServeClient second("127.0.0.1", server.port(), "chaos");
  EXPECT_EQ(second.score(clips).hits.size(), clips.size());
  EXPECT_EQ(server.tenant_inflight("chaos"), 0u);
  EXPECT_GE(server.stats().internal_errors, 1u);
  second.bye();
}

TEST(ChaosTest, ShortWriteTruncatesResponseClientSeesDeadConnection) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  fault::ScopedPlan armed(plan_of({"serve.net.send", fault::Kind::kShortIo,
                                   1.0, /*fraction=*/0.5,
                                   /*start_after=*/1, /*max_fires=*/1}));
  ServeClient client("127.0.0.1", server.port(), "short");
  const std::vector<layout::Clip> clips = make_clips(2, 11);
  // Half a response frame then EOF: the client rejects the torn frame.
  EXPECT_THROW(client.score(clips), CheckError);
  EXPECT_EQ(fault::fires("serve.net.send"), 1u);

  ServeClient second("127.0.0.1", server.port(), "short");
  EXPECT_EQ(second.score(clips).hits.size(), clips.size());
  second.bye();
}

TEST(ChaosTest, ExpiredDeadlineRejectedBusyWithoutEngineSlot) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  // Slow handler: 120 ms stall after the deadline anchor, so a 30 ms
  // budget is guaranteed dead before scoring starts.
  fault::ScopedPlan armed(plan_of({"serve.handler", fault::Kind::kDelay,
                                   1.0, /*ms=*/120.0, 0, /*max_fires=*/1}));
  ServeClient client("127.0.0.1", server.port(), "deadline");
  const std::vector<layout::Clip> clips = make_clips(2, 13);
  try {
    client.score(clips, /*deadline_ms=*/30);
    FAIL() << "expired deadline was scored";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBusy);
    EXPECT_EQ(e.retry_after_ms(), ServeConfig{}.retry_after_ms);
  }
  EXPECT_EQ(server.tenant_inflight("deadline"), 0u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.busy_rejections, 1u);
  EXPECT_EQ(stats.deadline_rejections, 1u);
  // Rejected before quota and before the engine: nothing was scored.
  EXPECT_EQ(stats.clips_scored, 0u);

  // Same session, fault spent: an undeadlined request serves normally.
  EXPECT_EQ(client.score(clips).hits.size(), clips.size());
  client.bye();
}

TEST(ChaosTest, RetryWithBackoffEventuallySucceeds) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  // Two requests in a row hit the slow handler and blow their budget
  // for certain (the stall alone exceeds it); later attempts go
  // through. >= on the shed count tolerates a loaded CI host where an
  // un-stalled attempt still misses the deadline and retries again.
  fault::ScopedPlan armed(plan_of({"serve.handler", fault::Kind::kDelay,
                                   1.0, /*ms=*/400.0, 0, /*max_fires=*/2}));
  ServeClient client("127.0.0.1", server.port(), "retry");
  const std::vector<layout::Clip> clips = make_clips(2, 17);
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_ms = 5;
  const ScoreResponse response =
      client.score_with_retry(clips, policy, /*deadline_ms=*/150);
  EXPECT_EQ(response.hits.size(), clips.size());
  client.bye();
  server.shutdown();  // drain, so the served-request stat is final
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.busy_rejections, 2u);
  EXPECT_EQ(stats.requests_served, 1u);
}

TEST(ChaosTest, RetryRedialsAfterInjectedConnectionDrop) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  // Two recv_exact probes per frame (header, payload): let the Hello
  // frame through, then drop the connection on the score request.
  fault::ScopedPlan armed(plan_of({"serve.net.recv", fault::Kind::kFail,
                                   1.0, 0.0, /*start_after=*/2,
                                   /*max_fires=*/1}));
  ServeClient client("127.0.0.1", server.port(), "redial");
  const std::vector<layout::Clip> clips = make_clips(2, 19);
  // The server's recv of the score request drops the connection; the
  // client re-dials, re-handshakes and resends (idempotent).
  const ScoreResponse response = client.score_with_retry(clips);
  EXPECT_EQ(response.hits.size(), clips.size());
  EXPECT_EQ(server.tenant_inflight("redial"), 0u);
  client.bye();
}

TEST(ChaosTest, AllocFaultAnswersInternalAndSessionSurvives) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  fault::ScopedPlan armed(plan_of(
      {"engine.score.alloc", fault::Kind::kAllocFail, 1.0, 0.0, 0, 1}));
  ServeClient client("127.0.0.1", server.port(), "alloc");
  const std::vector<layout::Clip> clips = make_clips(2, 23);
  try {
    client.score(clips);
    FAIL() << "alloc fault did not surface";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
  EXPECT_EQ(server.tenant_inflight("alloc"), 0u);
  EXPECT_EQ(server.stats().internal_errors, 1u);
  // The session keeps serving: kInternal is per-request.
  EXPECT_EQ(client.score(clips).hits.size(), clips.size());
  client.bye();
}

TEST(ChaosTest, NanScoreNeverReachesClientAsAProbability) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  fault::ScopedPlan armed(
      plan_of({"engine.nan", fault::Kind::kNan, 1.0, 0.0, 0, 1}));
  ServeClient client("127.0.0.1", server.port(), "nan");
  const std::vector<layout::Clip> clips = make_clips(2, 29);
  try {
    client.score(clips);
    FAIL() << "corrupted score was served";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
  EXPECT_EQ(server.tenant_inflight("nan"), 0u);
  const ScoreResponse response = client.score(clips);
  ASSERT_EQ(response.hits.size(), clips.size());
  for (const RankedHit& h : response.hits)
    EXPECT_TRUE(std::isfinite(h.probability));
  client.bye();
}

TEST(ChaosTest, OverloadShedsWithBusyAndServesAfterShed) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  ServeConfig config;
  config.session_workers = 2;
  config.max_clips_per_request = 2;
  config.busy_max_inflight_clips = 2;
  config.retry_after_ms = 5;
  HotspotServer server(registry, config);

  // A 300 ms stall inside the engine (kDelay on the alloc probe site)
  // keeps the first request's clips charged against the in-flight
  // ceiling, so a concurrent request deterministically sheds.
  fault::ScopedPlan armed(plan_of({"engine.score.alloc", fault::Kind::kDelay,
                                   1.0, /*ms=*/300.0, 0, /*max_fires=*/1}));
  const std::vector<layout::Clip> clips = make_clips(2, 31);
  std::thread holder([&] {
    ServeClient slow("127.0.0.1", server.port(), "hold");
    for (;;) {  // the hammering client below can shed us too
      try {
        EXPECT_EQ(slow.score(clips).hits.size(), clips.size());
        break;
      } catch (const ServerError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    slow.bye();
  });
  // Only start hammering once the holder's clips are charged — the
  // stall fault then deterministically lands on the holder's request.
  for (int i = 0; i < 2000 && server.tenant_inflight("hold") == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Hammer until we both get shed at least once AND land a success
  // after the shed: shedding rejects excess load without breaking the
  // session, and the next request with room under the ceiling serves.
  ServeClient client("127.0.0.1", server.port(), "shed");
  bool shed = false;
  bool success_after_shed = false;
  ScoreResponse response;
  for (int i = 0; i < 500 && !success_after_shed; ++i) {
    try {
      response = client.score(clips);
      success_after_shed = shed;
    } catch (const ServerError& e) {
      ASSERT_EQ(e.code(), ErrorCode::kBusy);
      EXPECT_EQ(e.retry_after_ms(), 5u);
      shed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  holder.join();
  ASSERT_TRUE(shed) << "no request was load-shed";
  ASSERT_TRUE(success_after_shed) << "no request succeeded after the shed";
  EXPECT_GE(server.stats().busy_rejections, 1u);
  EXPECT_EQ(response.hits.size(), clips.size());
  client.bye();
}

TEST(ChaosTest, StuckSessionIsReapedAndWorkerFreed) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  ServeConfig config;
  config.session_workers = 1;  // the stuck peer holds the only worker
  config.session_timeout_ms = 100;
  HotspotServer server(registry, config);

  // A client that handshakes, sends half a frame header, then goes
  // silent — without the watchdog this parks the worker forever.
  Socket stuck = Socket::connect("127.0.0.1", server.port());
  Hello hello;
  hello.tenant = "stuck";
  send_frame(stuck, encode_frame(MsgType::kHello, encode_hello(hello)));
  std::string buf;
  ASSERT_TRUE(recv_frame(stuck, buf, "stuck client"));
  ScoreRequest stuck_req;
  stuck_req.request_id = 1;
  stuck_req.clips = make_clips(1, 41);
  const std::string partial = encode_frame(MsgType::kScoreRequest,
                                           encode_score_request(stuck_req));
  stuck.send_all(partial.data(), 4);  // half a length prefix, then silence

  // The reaped worker picks up a healthy session and serves it.
  ServeClient client("127.0.0.1", server.port(), "healthy");
  const std::vector<layout::Clip> clips = make_clips(2, 43);
  EXPECT_EQ(client.score(clips).hits.size(), clips.size());
  EXPECT_GE(server.stats().sessions_reaped, 1u);
  EXPECT_EQ(server.tenant_inflight("stuck"), 0u);
  client.bye();
  stuck.close();
}

TEST(ChaosTest, DisarmedRegistryFiresNothingAcrossTheStack) {
  // The whole serving path runs with fault hooks present but disarmed:
  // zero fires, zero behavioral difference.
  ASSERT_FALSE(fault::armed());
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});
  ServeClient client("127.0.0.1", server.port(), "calm");
  const std::vector<layout::Clip> clips = make_clips(4, 47);
  EXPECT_EQ(client.score(clips).hits.size(), clips.size());
  EXPECT_EQ(fault::total_fires(), 0u);
  client.bye();
}

}  // namespace
}  // namespace hsdl::serve
