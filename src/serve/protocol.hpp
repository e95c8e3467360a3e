// hsdl serving wire protocol (DESIGN.md §13).
//
// Length-prefixed binary frames over a byte stream, built on the
// common/io checksummed little-endian codecs:
//
//   u32 payload_len | payload bytes | u32 crc32(payload)
//
// The payload begins with a u8 message type; the rest is the message
// body. Every frame is independently verifiable: a corrupted length
// field fails the bounds/limit checks, any payload bit-flip fails the
// CRC, and a truncated frame fails the reader's bounds checks — all with
// a positioned IoError, never an accepted frame (the corruption suite
// sweeps every single-bit flip and every truncation length).
//
// Session flow: the client opens with Hello (protocol version, tenant
// id) and gets HelloAck (server version, active model generation). It
// then streams ScoreRequest frames — each carries a request id, an
// optional deadline budget, and a batch of clips — and receives one
// ScoreResponse per request: every clip's (index, probability,
// threshold-flagged) entry, ranked by probability descending (ties by
// index), tagged with the generation of the model that scored it and
// the serving mode (fp32 or the int8 degraded path) it was scored in.
// SwapModel hot-swaps the served checkpoint; Error reports a rejected
// request without closing the session (machine-readable code, optional
// retry-after hint for kBusy load shedding); Bye closes it cleanly.
//
// Version 2 (reliability, DESIGN.md §14) added ScoreRequest.deadline_ms,
// ScoreResponse.mode, ErrorMsg.retry_after_ms and the kBusy/kInternal
// error codes.
//
// Version 3 (observability, DESIGN.md §15) adds per-request trace
// context — ScoreRequest carries a 64-bit trace id plus a sampling flag
// between deadline_ms and the clip array — and the Stats message pair:
// StatsRequest (empty body) answered by StatsResponse carrying a JSON
// snapshot of the server's counters, stage histograms and per-tenant
// totals. v3 is the only version spoken: a Hello offering any other
// version is answered kBadVersion and the session closes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "layout/clip.hpp"

namespace hsdl::serve {

inline constexpr std::uint32_t kProtocolVersion = 3;
/// Upper bound on a frame payload; a length field damaged upward is
/// rejected before any allocation.
inline constexpr std::size_t kMaxFrameBytes = 1u << 24;  // 16 MiB
/// u32 length prefix + u32 CRC trailer.
inline constexpr std::size_t kFrameOverhead = 8;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kScoreRequest = 3,
  kScoreResponse = 4,
  kSwapModel = 5,
  kSwapAck = 6,
  kError = 7,
  kBye = 8,
  kStatsRequest = 9,    ///< live stats snapshot (empty body)
  kStatsResponse = 10,  ///< JSON snapshot (see HotspotServer::stats_json)
};

enum class ErrorCode : std::uint8_t {
  kBadFrame = 1,       ///< malformed/corrupt frame (session closes)
  kBadVersion = 2,     ///< protocol version mismatch
  kTooManyClips = 3,   ///< request exceeds max_clips_per_request
  kQuotaExceeded = 4,  ///< request alone exceeds the tenant quota
  kShuttingDown = 5,   ///< server draining; no new requests
  kSwapFailed = 6,     ///< checkpoint load/verify failed
  kBusy = 7,           ///< load shed / deadline expired; retry after the
                       ///< hint in ErrorMsg::retry_after_ms
  kInternal = 8,       ///< scoring failed server-side (allocation failure,
                       ///< non-finite score); the session stays usable
};
const char* error_code_name(ErrorCode code);

/// Which serving path scored a request: fp32 is the default; int8 is
/// the quantized degraded path the server switches eligible tenants to
/// under sustained overload (DESIGN.md §14).
enum class ServeMode : std::uint8_t { kFp32 = 0, kInt8 = 1 };
const char* serve_mode_name(ServeMode mode);

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string tenant;
};

struct HelloAck {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t model_generation = 0;
};

struct ScoreRequest {
  std::uint64_t request_id = 0;
  /// Deadline budget in milliseconds, measured from server receipt
  /// (clocks are not shared, so the wire carries a relative budget).
  /// 0 = no deadline. An expired request is rejected with kBusy before
  /// it occupies an engine slot; a request whose deadline passes while
  /// queued in the micro-batcher is dropped there.
  std::uint32_t deadline_ms = 0;
  /// Trace context: a nonzero id + sampled=true asks the server to
  /// record this request's stage spans under the id (common/trace),
  /// stitching one span tree across the session and engine threads.
  std::uint64_t trace_id = 0;
  bool sampled = false;
  std::vector<layout::Clip> clips;
};

struct RankedHit {
  std::uint32_t index = 0;  ///< position in the request's clip array
  double probability = 0.0;
  bool flagged = false;  ///< probability vs the model's decision threshold
};

struct ScoreResponse {
  std::uint64_t request_id = 0;
  /// Generation of the model that scored this request; constant across
  /// one request even if a hot-swap landed mid-flight.
  std::uint64_t model_generation = 0;
  /// One entry per request clip, ranked by probability descending
  /// (ties broken by ascending index).
  std::vector<RankedHit> hits;
  /// Serving path that scored this request (fp32, or int8 when the
  /// server degraded the tenant under overload).
  ServeMode mode = ServeMode::kFp32;
};

struct SwapModel {
  std::string checkpoint_path;
};

struct SwapAck {
  std::uint64_t model_generation = 0;
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kBadFrame;
  std::string message;
  /// For kBusy: how long the client should back off before retrying,
  /// in milliseconds. 0 = no hint.
  std::uint32_t retry_after_ms = 0;
};

/// Live stats snapshot: the body is one compact JSON document
/// (schema hsdl-serve-stats-v1, strict-parseable by common/json).
/// Assembled off the hot path — building it reads counters/atomics and
/// never blocks a score request.
struct StatsResponse {
  std::string stats_json;
};

/// A decoded frame: the message type plus its body bytes (view into the
/// buffer handed to decode_frame).
struct Frame {
  MsgType type;
  std::string_view body;
};

/// Encodes `payload_type` + `body` into a complete frame.
std::string encode_frame(MsgType type, std::string_view body);

/// Validates and decodes one complete frame held in `buf` (exactly one
/// frame, no trailing bytes). Throws io::IoError with the failing byte
/// offset on any damage.
Frame decode_frame(std::string_view buf, const std::string& context);

// Message encoders: body bytes only (pass to encode_frame).
std::string encode_hello(const Hello& m);
std::string encode_hello_ack(const HelloAck& m);
std::string encode_score_request(const ScoreRequest& m);
std::string encode_score_response(const ScoreResponse& m);
std::string encode_swap_model(const SwapModel& m);
std::string encode_swap_ack(const SwapAck& m);
std::string encode_error(const ErrorMsg& m);
std::string encode_stats_response(const StatsResponse& m);

// Message decoders over a frame body. Throw io::IoError on damage.
Hello decode_hello(std::string_view body, const std::string& context);
HelloAck decode_hello_ack(std::string_view body, const std::string& context);
ScoreRequest decode_score_request(std::string_view body,
                                  const std::string& context);
ScoreResponse decode_score_response(std::string_view body,
                                    const std::string& context);
SwapModel decode_swap_model(std::string_view body, const std::string& context);
SwapAck decode_swap_ack(std::string_view body, const std::string& context);
ErrorMsg decode_error(std::string_view body, const std::string& context);
StatsResponse decode_stats_response(std::string_view body,
                                    const std::string& context);

/// Ranks (index, probability, flagged) entries for a scored request:
/// probability descending, ties by ascending index. `threshold` is the
/// serving model's decision threshold.
std::vector<RankedHit> rank_hits(const std::vector<double>& probabilities,
                                 double threshold);

}  // namespace hsdl::serve
