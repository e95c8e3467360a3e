// Observability loopback tests (DESIGN.md §15): a sampled request's
// span tree stitches across client, session and engine threads under
// one trace id; the live stats snapshot is strict-parseable JSON with
// the documented schema; the flight recorder retains the last N
// requests (including rejections) and dumps re-parseable JSONL on
// drain; a Hello offering any version but the current one is refused;
// and score_with_retry surfaces its retry/reconnect/backoff accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "hotspot/detector.hpp"
#include "layout/generator.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

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

std::string hex_id(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

/// Restores the process-wide trace/metrics switches a test flipped, so
/// suites sharing the binary see the disabled default.
class ObservabilityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
    metrics::set_enabled(false);
    metrics::reset();
  }
};

TEST_F(ObservabilityTest, SampledRequestStitchesOneSpanTree) {
  trace::clear();
  trace::set_enabled(true);

  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  ServeClient client("127.0.0.1", server.port(), "traced-tenant");
  client.set_tracing(true);
  const std::uint64_t tid = client.next_trace_id();
  ASSERT_NE(tid, 0u);

  const ScoreResponse resp = client.score(make_clips(3, 7));
  EXPECT_EQ(resp.hits.size(), 3u);
  // A stats round-trip on the same session orders us after the
  // server's handle_score epilogue (frames are handled serially per
  // session), so every server-side span is buffered before we export.
  (void)client.stats_json();

  const json::Value doc = json::parse(trace::chrome_trace_json());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const std::string want = hex_id(tid);
  std::set<std::string> tagged;  // span names carrying our trace id
  for (const json::Value& ev : events->items()) {
    const json::Value* args = ev.find("args");
    if (args == nullptr) continue;
    const json::Value* id = args->find("trace_id");
    if (id == nullptr || id->as_string() != want) continue;
    tagged.insert(ev.find("name")->as_string());
    // Complete events with sane durations on the shared trace clock.
    EXPECT_EQ(ev.find("ph")->as_string(), "X");
    EXPECT_GE(ev.find("dur")->as_number(), 0.0);
  }
  for (const char* name :
       {"client.request", "serve.recv", "serve.decode", "serve.quota",
        "serve.rank", "serve.send", "serve.request", "engine.extract",
        "engine.forward"})
    EXPECT_TRUE(tagged.count(name)) << "missing span: " << name;

  client.bye();
}

TEST_F(ObservabilityTest, StatsSnapshotIsStrictParseableAndPerTenant) {
  metrics::set_enabled(true);

  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  ServeConfig config;
  config.flight_recorder_size = 32;
  HotspotServer server(registry, config);

  ServeClient client("127.0.0.1", server.port(), "stats-tenant");
  for (int i = 0; i < 3; ++i) client.score(make_clips(2, 20 + i));

  const json::Value doc = json::parse(client.stats_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), "hsdl-serve-stats-v1");
  EXPECT_GE(doc.find("uptime_seconds")->as_number(), 0.0);

  const json::Value* srv = doc.find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_GE(srv->find("requests_served")->as_number(), 3.0);
  EXPECT_GE(srv->find("clips_scored")->as_number(), 6.0);

  const json::Value* tenant =
      doc.find("tenants")->find("stats-tenant");
  ASSERT_NE(tenant, nullptr);
  EXPECT_DOUBLE_EQ(tenant->find("requests")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(tenant->find("clips")->as_number(), 6.0);
  EXPECT_DOUBLE_EQ(tenant->find("inflight_clips")->as_number(), 0.0);

  // Each clip is one engine-level request: 3 requests x 2 clips.
  const json::Value* engine = doc.find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_GE(engine->find("requests")->as_number(), 6.0);

  const json::Value* flight = doc.find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_DOUBLE_EQ(flight->find("capacity")->as_number(), 32.0);
  EXPECT_GE(flight->find("recorded")->as_number(), 3.0);

  // With metrics armed, the registry digest rides along with
  // interpolated quantiles per histogram.
  const json::Value* stage = doc.find("metrics")
                                 ->find("histograms")
                                 ->find("serve.stage.score_seconds");
  ASSERT_NE(stage, nullptr);
  EXPECT_GE(stage->find("count")->as_number(), 3.0);
  EXPECT_GT(stage->find("p50")->as_number(), 0.0);
  EXPECT_GE(stage->find("p99")->as_number(),
            stage->find("p50")->as_number());

  // Per-tenant counters land in the registry under the tenant's name.
  const json::Value* tenant_requests =
      doc.find("metrics")->find("counters")->find(
          "serve.tenant.stats-tenant.requests");
  ASSERT_NE(tenant_requests, nullptr);
  EXPECT_DOUBLE_EQ(tenant_requests->as_number(), 3.0);

  client.bye();
}

TEST_F(ObservabilityTest, FlightRecorderKeepsLastNAndDumpsOnDrain) {
  const std::string dump_path = "observability_flight_dump.jsonl";
  std::remove(dump_path.c_str());

  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  ServeConfig config;
  config.flight_recorder_size = 4;
  config.flight_dump_path = dump_path;
  config.max_clips_per_request = 4;
  HotspotServer server(registry, config);

  ServeClient client("127.0.0.1", server.port(), "flight-tenant");
  for (int i = 0; i < 5; ++i) client.score(make_clips(1, 40 + i));
  // An oversized request must land in the ring too, with its error.
  EXPECT_THROW(client.score(make_clips(5, 50)), ServerError);
  (void)client.stats_json();  // order after the last flight commit

  const FlightRecorder& flight = server.flight_recorder();
  EXPECT_EQ(flight.capacity(), 4u);
  EXPECT_EQ(flight.total_recorded(), 6u);
  const std::vector<FlightRecord> records = flight.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LT(records[i - 1].seq, records[i].seq);
  const FlightRecord& last = records.back();
  EXPECT_EQ(last.error,
            static_cast<std::uint8_t>(ErrorCode::kTooManyClips));
  EXPECT_EQ(std::string(last.tenant), "flight-tenant");
  EXPECT_EQ(last.clips, 5u);
  EXPECT_GT(last.wall_ms, 0u);
  // The requests before it completed OK with real stage timings.
  EXPECT_EQ(records[0].error, 0u);
  EXPECT_GT(records[0].score_ms, 0.0f);
  EXPECT_GE(records[0].total_ms, records[0].score_ms);

  client.bye();
  server.shutdown();  // graceful drain appends a "drain" dump

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open());
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(json::parse(line));
  ASSERT_EQ(lines.size(), 5u);  // header + 4 records
  EXPECT_EQ(lines[0].find("event")->as_string(), "flight.dump");
  EXPECT_EQ(lines[0].find("reason")->as_string(), "drain");
  EXPECT_DOUBLE_EQ(lines[0].find("records")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(lines[0].find("total_recorded")->as_number(), 6.0);
  EXPECT_EQ(lines.back().find("tenant")->as_string(), "flight-tenant");
  EXPECT_EQ(lines.back().find("error")->as_string(), "too-many-clips");
  std::remove(dump_path.c_str());
}

TEST_F(ObservabilityTest, OtherProtocolVersionsRejectedWithBadVersion) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  HotspotServer server(registry, ServeConfig{});

  // A v3 client (a mode byte in every response), a v2 one (no trace
  // context on the wire), an older one and a newer one are each
  // answered kBadVersion; only the current version is spoken.
  for (const std::uint32_t version : {1u, 2u, 3u, kProtocolVersion + 1}) {
    Socket sock = Socket::connect("127.0.0.1", server.port());
    std::string buf;
    Hello hello;
    hello.version = version;
    hello.tenant = "legacy";
    send_frame(sock, encode_frame(MsgType::kHello, encode_hello(hello)));
    ASSERT_TRUE(recv_frame(sock, buf, "hello reply"));
    const Frame frame = decode_frame(buf, "hello reply");
    ASSERT_EQ(frame.type, MsgType::kError) << "version " << version;
    EXPECT_EQ(decode_error(frame.body, "hello reply").code,
              ErrorCode::kBadVersion)
        << "version " << version;
  }
}

TEST_F(ObservabilityTest, RetryStatsSurfaceReconnectAccounting) {
  ModelRegistry registry(small_config(), hotspot::EngineConfig{});
  registry.install(make_detector(1), "gen1");
  auto server = std::make_unique<HotspotServer>(
      registry, ServeConfig{});

  ServeClient client("127.0.0.1", server->port(), "retry-tenant");
  const std::vector<layout::Clip> clips = make_clips(1, 70);

  // Healthy path: the answer comes on the first attempt, stats stay 0.
  RetryStats stats;
  stats.retries = 99;  // must be zeroed by the call
  (void)client.score_with_retry(clips, RetryPolicy{}, 0, &stats);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_DOUBLE_EQ(stats.total_backoff_ms, 0.0);

  // Kill the server: the first attempt dies on the wire, the retry
  // path accounts one retry + one reconnect + its backoff before the
  // re-dial fails for good.
  server.reset();
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_ms = 1;
  EXPECT_THROW(client.score_with_retry(clips, policy, 0, &stats),
               CheckError);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GT(stats.total_backoff_ms, 0.0);
}

}  // namespace
}  // namespace hsdl::serve
