// Minimal blocking client for the hsdl serving protocol: one
// connection, synchronous request/response. This is the reference
// implementation of the client side of DESIGN.md §13 — the loopback
// tests, the latency bench and the serving example all drive the server
// through it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "layout/clip.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace hsdl::serve {

/// Thrown when the server answers a request with an Error frame; the
/// session stays usable for rejections that are per-request
/// (kTooManyClips, kQuotaExceeded, kSwapFailed, kBusy, kInternal).
class ServerError : public CheckError {
 public:
  ServerError(ErrorCode code, const std::string& message,
              std::uint32_t retry_after_ms = 0)
      : CheckError("server error [" + std::string(error_code_name(code)) +
                   "]: " + message),
        code_(code),
        retry_after_ms_(retry_after_ms) {}
  ErrorCode code() const { return code_; }
  /// Back-off hint from a kBusy rejection (0 = none given).
  std::uint32_t retry_after_ms() const { return retry_after_ms_; }

 private:
  ErrorCode code_;
  std::uint32_t retry_after_ms_;
};

/// What score_with_retry actually did to get its answer: how many
/// extra attempts ran, how many re-dials, and how long the client sat
/// in backoff. Feeds the bench's faulted-traffic column and the
/// client-side span — retries are invisible in server-side histograms
/// (each attempt looks like a fresh request there), so the client must
/// account for them.
struct RetryStats {
  std::uint64_t retries = 0;     ///< attempts beyond the first
  std::uint64_t reconnects = 0;  ///< re-dial + re-handshake cycles
  double total_backoff_ms = 0.0; ///< summed sleep between attempts
};

/// Retry schedule for score_with_retry: exponential backoff with
/// deterministic jitter, honoring the server's retry-after hint when
/// one came with the kBusy rejection.
struct RetryPolicy {
  std::size_t max_attempts = 5;
  /// First backoff (milliseconds); doubles per attempt...
  std::uint32_t base_backoff_ms = 10;
  /// ...capped here.
  std::uint32_t max_backoff_ms = 2000;
  /// Jitter draws (uniform in [0.5, 1.5) of the backoff) come from a
  /// seeded Rng so a chaos run replays the same schedule.
  std::uint64_t jitter_seed = 1;
  /// Also retry when the connection died (re-dial + handshake) — score
  /// requests are idempotent, so resending is safe.
  bool reconnect = true;
};

class ServeClient {
 public:
  /// Connects and performs the Hello handshake. `tenant` names the
  /// quota bucket this client draws from.
  ServeClient(const std::string& host, std::uint16_t port,
              const std::string& tenant);

  /// Model generation from the handshake / the latest response.
  std::uint64_t model_generation() const { return model_generation_; }

  /// When on, every score request carries a sampled trace id —
  /// fnv1a(tenant) ^ request_id — and the client records a
  /// client.request span under the same id, so client and server spans
  /// stitch into one tree when their trace buffers are merged.
  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  /// Trace id the next score() will carry (0 when tracing is off).
  /// Lets tests assert span identity.
  std::uint64_t next_trace_id() const;

  /// Socket send/recv timeouts for this client (see Socket::set_timeouts).
  void set_timeouts(std::uint32_t recv_ms, std::uint32_t send_ms) {
    sock_.set_timeouts(recv_ms, send_ms);
  }

  /// Scores a batch of clips; returns the ranked response. Throws
  /// ServerError on a per-request rejection and CheckError when the
  /// connection is gone. `deadline_ms` is the relative deadline budget
  /// carried on the wire (0 = none): the server rejects the request
  /// kBusy once the budget expires rather than scoring it late.
  ScoreResponse score(std::span<const layout::Clip> clips,
                      std::uint32_t deadline_ms = 0);

  /// score() with retries: on kBusy, backs off (the server's
  /// retry-after hint when given, else exponential with jitter) and
  /// resends; on a dead connection, re-dials and re-handshakes when the
  /// policy allows. Any other rejection propagates immediately. Throws
  /// the last error once attempts are exhausted. When `stats` is
  /// non-null it receives the cumulative retry/reconnect/backoff
  /// accounting for this call (zeroed first, filled even when the call
  /// ultimately throws).
  ScoreResponse score_with_retry(std::span<const layout::Clip> clips,
                                 const RetryPolicy& policy = {},
                                 std::uint32_t deadline_ms = 0,
                                 RetryStats* stats = nullptr);

  /// Live stats: asks the server for its JSON snapshot (see
  /// HotspotServer::stats_json).
  std::string stats_json();

  /// Convenience view of score(): probabilities re-ordered back to
  /// request clip order (index-aligned with `clips`).
  std::vector<double> score_probabilities(
      std::span<const layout::Clip> clips);

  /// Asks the server to hot-swap to `checkpoint_path`; returns the new
  /// model generation.
  std::uint64_t swap_model(const std::string& checkpoint_path);

  /// Clean close (Bye frame). The destructor just drops the socket.
  void bye();

 private:
  void connect_and_handshake();
  Frame roundtrip(MsgType type, std::string_view body, MsgType expect);

  std::string host_;
  std::uint16_t port_;
  std::string tenant_;
  Socket sock_;
  std::string buf_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t model_generation_ = 0;
  bool tracing_ = false;
};

}  // namespace hsdl::serve
