#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace hsdl::serve {
namespace {

/// FNV-1a over the tenant name: a stable per-tenant prefix XORed with
/// the monotone request id gives each request a distinct, nonzero,
/// reproducible trace id without any shared randomness.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ServeClient::ServeClient(const std::string& host, std::uint16_t port,
                         const std::string& tenant)
    : host_(host), port_(port), tenant_(tenant) {
  connect_and_handshake();
}

void ServeClient::connect_and_handshake() {
  sock_ = Socket::connect(host_, port_);
  sock_.set_fault_site("client.net");
  Hello hello;
  hello.tenant = tenant_;
  const Frame ack = roundtrip(MsgType::kHello, encode_hello(hello),
                              MsgType::kHelloAck);
  const HelloAck decoded = decode_hello_ack(ack.body, "hello ack");
  HSDL_CHECK_MSG(decoded.version == kProtocolVersion,
                 "server acked protocol version "
                     << decoded.version << ", client speaks "
                     << kProtocolVersion);
  model_generation_ = decoded.model_generation;
}

std::uint64_t ServeClient::next_trace_id() const {
  if (!tracing_) return 0;
  const std::uint64_t id = fnv1a64(tenant_) ^ next_request_id_;
  return id == 0 ? 1 : id;
}

Frame ServeClient::roundtrip(MsgType type, std::string_view body,
                             MsgType expect) {
  send_frame(sock_, encode_frame(type, body));
  HSDL_CHECK_MSG(recv_frame(sock_, buf_, "serve client"),
                 "server closed the connection");
  const Frame frame = decode_frame(buf_, "serve client");
  if (frame.type == MsgType::kError) {
    const ErrorMsg err = decode_error(frame.body, "serve client");
    throw ServerError(err.code, err.message, err.retry_after_ms);
  }
  HSDL_CHECK_MSG(frame.type == expect,
                 "unexpected response type "
                     << static_cast<int>(frame.type) << " (wanted "
                     << static_cast<int>(expect) << ")");
  return frame;
}

ScoreResponse ServeClient::score(std::span<const layout::Clip> clips,
                                 std::uint32_t deadline_ms) {
  ScoreRequest request;
  request.trace_id = next_trace_id();
  request.sampled = request.trace_id != 0;
  request.request_id = next_request_id_++;
  request.deadline_ms = deadline_ms;
  request.clips.assign(clips.begin(), clips.end());
  // Client-side root span: the whole round trip, under the same id the
  // server's spans carry — merging both trace buffers yields one tree.
  const std::uint64_t begin_ns =
      request.sampled && trace::enabled() ? trace::timestamp_ns() : 0;
  const Frame frame =
      roundtrip(MsgType::kScoreRequest,
                encode_score_request(request),
                MsgType::kScoreResponse);
  if (begin_ns != 0)
    trace::emit("client.request", begin_ns, trace::timestamp_ns(),
                request.trace_id);
  ScoreResponse response = decode_score_response(frame.body, "serve client");
  HSDL_CHECK_MSG(response.request_id == request.request_id,
                 "response id " << response.request_id
                                << " does not match request "
                                << request.request_id);
  HSDL_CHECK_MSG(response.hits.size() == clips.size(),
                 "response covers " << response.hits.size() << " of "
                                    << clips.size() << " clips");
  model_generation_ = response.model_generation;
  return response;
}

ScoreResponse ServeClient::score_with_retry(
    std::span<const layout::Clip> clips, const RetryPolicy& policy,
    std::uint32_t deadline_ms, RetryStats* stats) {
  HSDL_CHECK_MSG(policy.max_attempts > 0,
                 "retry policy: max_attempts must be positive");
  if (stats != nullptr) *stats = RetryStats{};
  Rng jitter(policy.jitter_seed);
  std::uint32_t backoff = policy.base_backoff_ms;
  for (std::size_t attempt = 1;; ++attempt) {
    bool dead_connection = false;
    std::uint32_t hint = 0;
    try {
      return score(clips, deadline_ms);
    } catch (const ServerError& e) {
      // Only kBusy is a "try again later"; every other rejection is
      // deterministic and would just fail again.
      if (e.code() != ErrorCode::kBusy || attempt >= policy.max_attempts)
        throw;
      hint = e.retry_after_ms();
    } catch (const CheckError&) {
      // Connection-level failure (EOF, reset, timeout). Score requests
      // are idempotent, so re-dialing and resending is safe.
      if (!policy.reconnect || attempt >= policy.max_attempts) throw;
      dead_connection = true;
    }
    double wait_ms = hint > 0 ? hint : backoff;
    wait_ms *= jitter.uniform(0.5, 1.5);
    if (stats != nullptr) {
      ++stats->retries;
      if (dead_connection) ++stats->reconnects;
      stats->total_backoff_ms += wait_ms;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait_ms));
    backoff = std::min(policy.max_backoff_ms, backoff * 2);
    if (dead_connection) connect_and_handshake();
  }
}

std::string ServeClient::stats_json() {
  const Frame frame =
      roundtrip(MsgType::kStatsRequest, "", MsgType::kStatsResponse);
  return decode_stats_response(frame.body, "serve client").stats_json;
}

std::vector<double> ServeClient::score_probabilities(
    std::span<const layout::Clip> clips) {
  const ScoreResponse response = score(clips);
  std::vector<double> probs(clips.size(), 0.0);
  for (const RankedHit& h : response.hits) {
    HSDL_CHECK_MSG(h.index < probs.size(),
                   "hit index " << h.index << " out of range");
    probs[h.index] = h.probability;
  }
  return probs;
}

std::uint64_t ServeClient::swap_model(const std::string& checkpoint_path) {
  const Frame frame =
      roundtrip(MsgType::kSwapModel, encode_swap_model({checkpoint_path}),
                MsgType::kSwapAck);
  const SwapAck ack = decode_swap_ack(frame.body, "serve client");
  model_generation_ = ack.model_generation;
  return ack.model_generation;
}

void ServeClient::bye() {
  send_frame(sock_, encode_frame(MsgType::kBye, ""));
  sock_.close();
}

}  // namespace hsdl::serve
