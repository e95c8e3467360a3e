#include "serve/protocol.hpp"

#include <algorithm>

#include "hotspot/metrics.hpp"

namespace hsdl::serve {
namespace {

/// Clip shape-count sanity cap: a 16 MiB frame cannot hold more rects
/// than this anyway, so anything larger is a damaged length field.
constexpr std::size_t kMaxShapes = kMaxFrameBytes / 32;
constexpr std::size_t kMaxTenantLen = 256;
constexpr std::size_t kMaxPathLen = 4096;
constexpr std::size_t kMaxMessageLen = 4096;

void write_rect(io::ByteWriter& w, const geom::Rect& r) {
  w.i64(r.lo.x);
  w.i64(r.lo.y);
  w.i64(r.hi.x);
  w.i64(r.hi.y);
}

geom::Rect read_rect(io::ByteReader& r) {
  geom::Rect out;
  out.lo.x = r.i64();
  out.lo.y = r.i64();
  out.hi.x = r.i64();
  out.hi.y = r.i64();
  return out;
}

void write_clip(io::ByteWriter& w, const layout::Clip& clip) {
  write_rect(w, clip.window);
  w.u32(static_cast<std::uint32_t>(clip.shapes.size()));
  for (const geom::Rect& s : clip.shapes) write_rect(w, s);
}

layout::Clip read_clip(io::ByteReader& r) {
  layout::Clip clip;
  clip.window = read_rect(r);
  const std::uint32_t n = r.u32();
  if (n > kMaxShapes) r.fail("clip shape count exceeds frame capacity");
  clip.shapes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) clip.shapes.push_back(read_rect(r));
  return clip;
}

io::ByteReader body_reader(std::string_view body, const std::string& context) {
  return io::ByteReader(body, context);
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame:
      return "bad-frame";
    case ErrorCode::kBadVersion:
      return "bad-version";
    case ErrorCode::kTooManyClips:
      return "too-many-clips";
    case ErrorCode::kQuotaExceeded:
      return "quota-exceeded";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kSwapFailed:
      return "swap-failed";
    case ErrorCode::kBusy:
      return "busy";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

const char* serve_mode_name(ServeMode mode) {
  switch (mode) {
    case ServeMode::kFp32:
      return "fp32";
    case ServeMode::kInt8:
      return "int8";
  }
  return "unknown";
}

std::string encode_frame(MsgType type, std::string_view body) {
  io::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(type));
  payload.bytes(body.data(), body.size());
  const std::string& p = payload.buffer();
  HSDL_CHECK_MSG(p.size() <= kMaxFrameBytes,
                 "frame payload " << p.size() << " exceeds limit "
                                  << kMaxFrameBytes);
  io::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(p.size()));
  frame.bytes(p.data(), p.size());
  frame.u32(io::crc32(p));
  return frame.take();
}

Frame decode_frame(std::string_view buf, const std::string& context) {
  io::ByteReader r(buf, context);
  const std::uint32_t len = r.u32();
  if (len > kMaxFrameBytes) r.fail("frame length exceeds limit");
  if (len == 0) r.fail("empty frame payload");
  const std::string_view payload = r.bytes(len);
  const std::uint32_t declared = r.u32();
  r.expect_end();
  if (declared != io::crc32(payload))
    throw io::IoError("frame checksum mismatch", 4, context);
  io::ByteReader p(payload, context);
  const std::uint8_t type = p.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kStatsResponse))
    p.fail("unknown message type");
  return Frame{static_cast<MsgType>(type), payload.substr(1)};
}

std::string encode_hello(const Hello& m) {
  io::ByteWriter w;
  w.u32(m.version);
  w.str(m.tenant);
  return w.take();
}

Hello decode_hello(std::string_view body, const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  Hello m;
  m.version = r.u32();
  m.tenant = r.str(kMaxTenantLen);
  r.expect_end();
  return m;
}

std::string encode_hello_ack(const HelloAck& m) {
  io::ByteWriter w;
  w.u32(m.version);
  w.u64(m.model_generation);
  return w.take();
}

HelloAck decode_hello_ack(std::string_view body, const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  HelloAck m;
  m.version = r.u32();
  m.model_generation = r.u64();
  r.expect_end();
  return m;
}

std::string encode_score_request(const ScoreRequest& m) {
  io::ByteWriter w;
  w.u64(m.request_id);
  w.u32(m.deadline_ms);
  w.u64(m.trace_id);
  w.u8(m.sampled ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(m.clips.size()));
  for (const layout::Clip& c : m.clips) write_clip(w, c);
  return w.take();
}

ScoreRequest decode_score_request(std::string_view body,
                                  const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  ScoreRequest m;
  m.request_id = r.u64();
  m.deadline_ms = r.u32();
  m.trace_id = r.u64();
  const std::uint8_t sampled = r.u8();
  if (sampled > 1) r.fail("trace sampled flag must be 0 or 1");
  m.sampled = sampled == 1;
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * 40 > kMaxFrameBytes)
    r.fail("clip count exceeds frame capacity");
  m.clips.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.clips.push_back(read_clip(r));
  r.expect_end();
  return m;
}

std::string encode_score_response(const ScoreResponse& m) {
  io::ByteWriter w;
  w.u64(m.request_id);
  w.u64(m.model_generation);
  w.u8(static_cast<std::uint8_t>(m.mode));
  w.u32(static_cast<std::uint32_t>(m.hits.size()));
  for (const RankedHit& h : m.hits) {
    w.u32(h.index);
    w.f64(h.probability);
    w.u8(h.flagged ? 1 : 0);
  }
  return w.take();
}

ScoreResponse decode_score_response(std::string_view body,
                                    const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  ScoreResponse m;
  m.request_id = r.u64();
  m.model_generation = r.u64();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(ServeMode::kInt8))
    r.fail("unknown serve mode");
  m.mode = static_cast<ServeMode>(mode);
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * 13 > kMaxFrameBytes)
    r.fail("hit count exceeds frame capacity");
  m.hits.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RankedHit h;
    h.index = r.u32();
    h.probability = r.f64();
    const std::uint8_t flagged = r.u8();
    if (flagged > 1) r.fail("hit flag must be 0 or 1");
    h.flagged = flagged == 1;
    m.hits.push_back(h);
  }
  r.expect_end();
  return m;
}

std::string encode_swap_model(const SwapModel& m) {
  io::ByteWriter w;
  w.str(m.checkpoint_path);
  return w.take();
}

SwapModel decode_swap_model(std::string_view body,
                            const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  SwapModel m;
  m.checkpoint_path = r.str(kMaxPathLen);
  r.expect_end();
  return m;
}

std::string encode_swap_ack(const SwapAck& m) {
  io::ByteWriter w;
  w.u64(m.model_generation);
  return w.take();
}

SwapAck decode_swap_ack(std::string_view body, const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  SwapAck m;
  m.model_generation = r.u64();
  r.expect_end();
  return m;
}

std::string encode_error(const ErrorMsg& m) {
  io::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.code));
  w.u32(m.retry_after_ms);
  w.str(m.message);
  return w.take();
}

ErrorMsg decode_error(std::string_view body, const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  ErrorMsg m;
  const std::uint8_t code = r.u8();
  if (code < static_cast<std::uint8_t>(ErrorCode::kBadFrame) ||
      code > static_cast<std::uint8_t>(ErrorCode::kInternal))
    r.fail("unknown error code");
  m.code = static_cast<ErrorCode>(code);
  m.retry_after_ms = r.u32();
  m.message = r.str(kMaxMessageLen);
  r.expect_end();
  return m;
}

std::string encode_stats_response(const StatsResponse& m) {
  io::ByteWriter w;
  w.str(m.stats_json);
  return w.take();
}

StatsResponse decode_stats_response(std::string_view body,
                                    const std::string& context) {
  io::ByteReader r = body_reader(body, context);
  StatsResponse m;
  // A stats document is bounded by the frame limit, not the short
  // string caps above: it carries every histogram of a long-lived
  // server.
  m.stats_json = r.str(kMaxFrameBytes);
  r.expect_end();
  return m;
}

std::vector<RankedHit> rank_hits(const std::vector<double>& probabilities,
                                 double threshold) {
  std::vector<RankedHit> hits;
  hits.reserve(probabilities.size());
  for (std::size_t i = 0; i < probabilities.size(); ++i)
    hits.push_back(RankedHit{static_cast<std::uint32_t>(i), probabilities[i],
                             hotspot::is_flagged(probabilities[i], threshold)});
  std::sort(hits.begin(), hits.end(),
            [](const RankedHit& a, const RankedHit& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.index < b.index;
            });
  return hits;
}

}  // namespace hsdl::serve
