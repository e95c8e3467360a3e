// Serving wire-protocol tests: message round-trips, hit ranking, and
// the corruption sweep — every single-bit flip and every truncation of
// an encoded frame must be rejected with a CheckError-family positioned
// diagnostic, never accepted and never a crash or foreign exception
// (the same contract the checkpoint/GLF/GDSII corruption harness
// enforces in tests/io/corruption_test.cpp).
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/io.hpp"

namespace hsdl::serve {
namespace {

ScoreRequest sample_request() {
  ScoreRequest request;
  request.request_id = 42;
  request.deadline_ms = 250;
  layout::Clip a;
  a.window = geom::Rect::from_xywh(0, 0, 1200, 1200);
  a.shapes = {geom::Rect::from_xywh(0, 0, 100, 40),
              geom::Rect::from_xywh(200, 300, 40, 400)};
  layout::Clip b;
  b.window = geom::Rect::from_xywh(100, 100, 1200, 1200);
  b.shapes = {geom::Rect::from_xywh(150, 150, 60, 60)};
  request.clips = {a, b};
  return request;
}

TEST(ProtocolTest, HelloRoundTrips) {
  Hello hello;
  hello.tenant = "tenant-a";
  const std::string frame = encode_frame(MsgType::kHello, encode_hello(hello));
  const Frame decoded = decode_frame(frame, "test");
  ASSERT_EQ(decoded.type, MsgType::kHello);
  const Hello out = decode_hello(decoded.body, "test");
  EXPECT_EQ(out.version, kProtocolVersion);
  EXPECT_EQ(out.tenant, "tenant-a");
}

TEST(ProtocolTest, ScoreRequestRoundTrips) {
  const ScoreRequest request = sample_request();
  const std::string frame =
      encode_frame(MsgType::kScoreRequest, encode_score_request(request));
  const Frame decoded = decode_frame(frame, "test");
  ASSERT_EQ(decoded.type, MsgType::kScoreRequest);
  const ScoreRequest out = decode_score_request(decoded.body, "test");
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.deadline_ms, 250u);
  ASSERT_EQ(out.clips.size(), 2u);
  EXPECT_EQ(out.clips[0].window, request.clips[0].window);
  EXPECT_EQ(out.clips[0].shapes, request.clips[0].shapes);
  EXPECT_EQ(out.clips[1].shapes, request.clips[1].shapes);
}

TEST(ProtocolTest, ScoreRequestCarriesTraceContext) {
  ScoreRequest request = sample_request();
  request.trace_id = 0xdeadbeefcafef00dull;
  request.sampled = true;
  const std::string body = encode_score_request(request);
  const ScoreRequest out = decode_score_request(body, "test");
  EXPECT_EQ(out.trace_id, 0xdeadbeefcafef00dull);
  EXPECT_TRUE(out.sampled);
  EXPECT_EQ(out.request_id, request.request_id);
  ASSERT_EQ(out.clips.size(), request.clips.size());
}

TEST(ProtocolTest, ScoreRequestWithoutTraceContextRejected) {
  // The pre-v3 layout had no trace id + sampled flag (9 bytes after
  // deadline_ms). Such a body must fail with a positioned error, never
  // decode as a misparsed request.
  std::string body = encode_score_request(sample_request());
  body.erase(8 + 4, 9);
  EXPECT_THROW(decode_score_request(body, "test"), io::IoError);
}

TEST(ProtocolTest, StatsResponseRoundTrips) {
  StatsResponse stats;
  stats.stats_json = "{\"schema\":\"hsdl-serve-stats-v1\",\"server\":{}}";
  const std::string frame = encode_frame(MsgType::kStatsResponse,
                                         encode_stats_response(stats));
  const Frame decoded = decode_frame(frame, "test");
  ASSERT_EQ(decoded.type, MsgType::kStatsResponse);
  EXPECT_EQ(decode_stats_response(decoded.body, "test").stats_json,
            stats.stats_json);
}

TEST(ProtocolTest, DecodeRejectsBadSampledFlag) {
  ScoreRequest request = sample_request();
  request.sampled = true;
  std::string body = encode_score_request(request);
  // The sampled flag sits right after request_id (u64) + deadline_ms
  // (u32) + trace_id (u64).
  body[8 + 4 + 8] = 2;
  EXPECT_THROW(decode_score_request(body, "test"), io::IoError);
}

TEST(ProtocolTest, ScoreResponseRoundTrips) {
  ScoreResponse response;
  response.request_id = 7;
  response.model_generation = 3;
  response.hits = {{1, 0.9, true}, {0, 0.25, false}};
  const std::string frame =
      encode_frame(MsgType::kScoreResponse, encode_score_response(response));
  const Frame decoded = decode_frame(frame, "test");
  const ScoreResponse out = decode_score_response(decoded.body, "test");
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.model_generation, 3u);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_EQ(out.hits[0].index, 1u);
  EXPECT_EQ(out.hits[0].probability, 0.9);
  EXPECT_TRUE(out.hits[0].flagged);
  EXPECT_FALSE(out.hits[1].flagged);
}

TEST(ProtocolTest, ErrorAndSwapRoundTrip) {
  const std::string err_frame = encode_frame(
      MsgType::kError,
      encode_error(ErrorMsg{ErrorCode::kQuotaExceeded, "over budget"}));
  const ErrorMsg err =
      decode_error(decode_frame(err_frame, "test").body, "test");
  EXPECT_EQ(err.code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(err.message, "over budget");
  EXPECT_EQ(err.retry_after_ms, 0u);

  const std::string busy_frame = encode_frame(
      MsgType::kError,
      encode_error(ErrorMsg{ErrorCode::kBusy, "shedding load", 40}));
  const ErrorMsg busy =
      decode_error(decode_frame(busy_frame, "test").body, "test");
  EXPECT_EQ(busy.code, ErrorCode::kBusy);
  EXPECT_EQ(busy.retry_after_ms, 40u);
  EXPECT_STREQ(error_code_name(busy.code), "busy");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");

  const std::string swap_frame = encode_frame(
      MsgType::kSwapModel, encode_swap_model(SwapModel{"ckpt.hsdl"}));
  EXPECT_EQ(decode_swap_model(decode_frame(swap_frame, "test").body, "test")
                .checkpoint_path,
            "ckpt.hsdl");

  const std::string ack_frame =
      encode_frame(MsgType::kSwapAck, encode_swap_ack(SwapAck{9}));
  EXPECT_EQ(
      decode_swap_ack(decode_frame(ack_frame, "test").body, "test")
          .model_generation,
      9u);
}

TEST(ProtocolTest, RankHitsSortsByProbabilityThenIndex) {
  const std::vector<double> probs = {0.2, 0.9, 0.5, 0.9, 0.1};
  const std::vector<RankedHit> hits = rank_hits(probs, 0.5);
  ASSERT_EQ(hits.size(), probs.size());
  EXPECT_EQ(hits[0].index, 1u);  // 0.9, earlier index first on tie
  EXPECT_EQ(hits[1].index, 3u);  // 0.9
  EXPECT_EQ(hits[2].index, 2u);  // 0.5
  EXPECT_EQ(hits[3].index, 0u);  // 0.2
  EXPECT_EQ(hits[4].index, 4u);  // 0.1
  EXPECT_TRUE(hits[0].flagged);
  EXPECT_TRUE(hits[1].flagged);
  EXPECT_FALSE(hits[3].flagged);
  for (std::size_t i = 1; i < hits.size(); ++i)
    EXPECT_GE(hits[i - 1].probability, hits[i].probability);
}

TEST(ProtocolTest, DecodeRejectsTrailingGarbage) {
  std::string frame = encode_frame(MsgType::kBye, "");
  frame += '\0';
  EXPECT_THROW(decode_frame(frame, "test"), CheckError);
}

// ---------------------------------------------------------------------------
// Corruption sweep (corruption_test.cpp idiom): the frame decoder must
// reject every damaged variant via the CheckError taxonomy.

enum class Outcome { kAccepted, kRejected, kForeignException };

Outcome try_decode(const std::string& bytes) {
  try {
    const Frame frame = decode_frame(bytes, "sweep");
    switch (frame.type) {
      case MsgType::kScoreRequest:
        (void)decode_score_request(frame.body, "sweep");
        break;
      case MsgType::kBye:
        break;
      default:
        // A bit-flip that lands on the type byte may turn the frame into
        // a different valid type whose body then fails to decode; route
        // it through the matching decoder so the sweep exercises that.
        (void)decode_hello(frame.body, "sweep");
        break;
    }
    return Outcome::kAccepted;
  } catch (const CheckError&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kForeignException;
  }
}

TEST(ProtocolCorruptionTest, EveryBitFlipIsRejected) {
  const std::string frame =
      encode_frame(MsgType::kScoreRequest, encode_score_request(
                                               sample_request()));
  ASSERT_EQ(try_decode(frame), Outcome::kAccepted);
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(
          static_cast<unsigned char>(damaged[byte]) ^ (1u << bit));
      const Outcome outcome = try_decode(damaged);
      EXPECT_NE(outcome, Outcome::kForeignException)
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(outcome, Outcome::kRejected)
          << "byte " << byte << " bit " << bit;
      if (outcome == Outcome::kRejected) ++rejected;
    }
  }
  EXPECT_EQ(rejected, frame.size() * 8);
}

TEST(ProtocolCorruptionTest, EveryTruncationIsRejected) {
  const std::string frame =
      encode_frame(MsgType::kScoreRequest, encode_score_request(
                                               sample_request()));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const Outcome outcome = try_decode(frame.substr(0, len));
    EXPECT_NE(outcome, Outcome::kForeignException) << "length " << len;
    EXPECT_EQ(outcome, Outcome::kRejected) << "length " << len;
  }
}

TEST(ProtocolCorruptionTest, OversizedLengthFieldIsRejectedBeforeAllocation) {
  std::string frame = encode_frame(MsgType::kBye, "");
  // Stamp a length beyond kMaxFrameBytes into the prefix.
  const std::uint32_t huge = (1u << 25);
  for (int i = 0; i < 4; ++i)
    frame[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  EXPECT_EQ(try_decode(frame), Outcome::kRejected);
}

}  // namespace
}  // namespace hsdl::serve
