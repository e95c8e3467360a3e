// Multi-tenant serving front-end over the InferenceEngine
// (DESIGN.md §13).
//
// A HotspotServer listens on loopback, accepts client connections on a
// dedicated accept thread and runs each connection as a session on a
// fixed TaskPool of session workers (connections beyond the worker
// count queue until a worker frees up). A session speaks the framed
// protocol in serve/protocol.hpp: Hello/HelloAck handshake, then
// ScoreRequest -> ScoreResponse until Bye or EOF.
//
// Per request the session acquires the registry's current model, blocks
// on the tenant's in-flight clip quota (backpressure: a session that
// cannot get quota stops reading its socket, which pushes back on the
// client through TCP), scores through the model's engine and answers
// with ranked hits tagged with the scoring model's generation. Hot
// swaps install a new generation in the registry; in-flight requests
// hold their handle and complete against the old model.
//
// Shutdown drains gracefully: the listener closes (no new sessions),
// idle sessions are woken with a read-side shutdown and close cleanly,
// sessions mid-request finish scoring and flush their response (the
// write side is untouched), quota waiters abort with kShuttingDown.
//
// Reliability (DESIGN.md §14): requests carry an optional deadline —
// one that expires before scoring is rejected kBusy without occupying
// an engine slot, one that expires in the micro-batcher is dropped
// there. A global in-flight clip ceiling sheds excess load with kBusy +
// a retry-after hint; under sustained shedding the server degrades
// eligible (quantized) models to the int8 engine and recovers once the
// overload clears, reporting the serving mode in every response.
// Session socket timeouts reap stuck peers, freeing the worker and any
// tenant quota they held. Engine-side failures (allocation failure,
// non-finite score) answer kInternal and leave the session usable.
//
// Observability (DESIGN.md §15): a sampled request's trace id follows it through recv/decode/quota/score/rank/
// send and into the engine's micro-batcher, producing one span tree in
// the common/trace buffer. Every stage records a latency histogram
// when metrics are enabled, every completed or rejected score request
// lands in the always-on flight recorder, and stats_json() assembles a
// JSON snapshot of all of it — per tenant and global — without ever
// touching the engine hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/run_report.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace hsdl::serve {

struct ServeConfig {
  /// 0 binds an ephemeral loopback port; read it back with port().
  std::uint16_t port = 0;
  /// Session workers == max concurrent client sessions.
  std::size_t session_workers = 4;
  /// Hard cap per ScoreRequest; larger requests are rejected with
  /// kTooManyClips (the frame limit bounds this anyway).
  std::size_t max_clips_per_request = 65536;
  /// Per-tenant in-flight clip budget across all of the tenant's
  /// sessions. Requests wait for budget (backpressure) rather than
  /// fail; a single request larger than the whole budget is rejected
  /// with kQuotaExceeded.
  std::size_t tenant_quota_clips = 1u << 20;
  /// Optional JSONL stream: one record per served request (tenant,
  /// clips, model generation, latency). Empty disables.
  std::string telemetry_path;
  /// Session socket recv/send timeout (milliseconds; 0 = unbounded,
  /// sessions may idle forever). With a timeout, a stuck peer — half a
  /// frame then silence, or refusing to drain its response — is reaped:
  /// the session worker frees up and any quota the request held is
  /// released.
  std::uint32_t session_timeout_ms = 0;
  /// Load shedding: clips concurrently inside engines, across all
  /// tenants, before further requests are answered kBusy (0 = no
  /// ceiling). Distinct from the per-tenant quota, which *blocks*; the
  /// ceiling *rejects*, so the server stays responsive under overload.
  std::size_t busy_max_inflight_clips = 0;
  /// Back-off hint carried on kBusy responses (milliseconds).
  std::uint32_t retry_after_ms = 25;
  /// Graceful degradation: under sustained shedding, switch models
  /// that have an int8 quantized net to the degraded engine.
  bool degrade_to_int8 = true;
  /// Shedding must persist this long before degrading (0 = the first
  /// shed degrades immediately) ...
  std::uint32_t degrade_after_ms = 250;
  /// ... and this much shed-free time ends the overload (and restores
  /// fp32 when degraded).
  std::uint32_t recover_after_ms = 1000;
  /// Flight recorder depth: the last N score requests (per server, all
  /// tenants) retained for post-mortem dumps. Always on; ~64 bytes per
  /// slot.
  std::size_t flight_recorder_size = 256;
  /// Where dump_flight_recorder() writes (also triggered on graceful
  /// drain and on session-fatal errors when non-empty). Empty disables
  /// automatic dumps; the in-memory ring still records.
  std::string flight_dump_path;

  void validate() const;
};

struct ServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t clips_scored = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t swaps = 0;
  /// kBusy answers: load sheds plus expired deadlines.
  std::uint64_t busy_rejections = 0;
  /// Subset of busy_rejections caused by an expired deadline (already
  /// past on receipt, or dropped in the micro-batcher queue).
  std::uint64_t deadline_rejections = 0;
  /// kInternal answers (allocation failure, non-finite score); the
  /// session survived.
  std::uint64_t internal_errors = 0;
  /// Stuck sessions reaped by the socket timeout watchdog.
  std::uint64_t sessions_reaped = 0;
  std::uint64_t degrade_events = 0;  ///< fp32 -> int8 transitions
  std::uint64_t recover_events = 0;  ///< int8 -> fp32 transitions
  bool degraded = false;             ///< currently serving int8
};

class HotspotServer {
 public:
  /// The registry must outlive the server and have a model installed
  /// before the first score request arrives.
  HotspotServer(ModelRegistry& registry, const ServeConfig& config);
  ~HotspotServer();
  HotspotServer(const HotspotServer&) = delete;
  HotspotServer& operator=(const HotspotServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  const ServeConfig& config() const { return config_; }

  /// Graceful drain; idempotent, called by the destructor.
  void shutdown();

  ServerStats stats() const;

  /// One JSON document (schema hsdl-serve-stats-v1): uptime, the
  /// ServerStats counters, per-tenant request/clip/in-flight totals,
  /// the active engine's counters, flight-recorder occupancy and — when
  /// metrics are enabled — the full registry digest with interpolated
  /// p50/p90/p99 per histogram. Assembled from atomics and brief
  /// bookkeeping locks; never blocks scoring.
  std::string stats_json() const;

  /// The always-on last-N-requests ring (see flight_recorder.hpp).
  const FlightRecorder& flight_recorder() const { return flight_; }

  /// Dumps the flight recorder to config().flight_dump_path (JSONL).
  /// No-op without a configured path; never throws. `reason` labels the
  /// dump's header line ("signal", "drain", "session-fatal", ...).
  void dump_flight_recorder(const std::string& reason) const;

  /// In-flight clips currently charged to `tenant` (0 for an unknown
  /// tenant). The chaos suite asserts this returns to zero after a
  /// session dies abnormally mid-request.
  std::size_t tenant_inflight(const std::string& tenant) const;

 private:
  struct TenantBudget {
    std::size_t in_flight = 0;
    std::uint64_t requests = 0;  ///< score requests answered OK
    std::uint64_t clips = 0;     ///< clips in those requests
  };
  /// Per-session state threaded through the frame dispatch loop: the
  /// tenant named at Hello and the tenant's metric instruments resolved once (the registry lookup
  /// takes a lock; the per-request path must not).
  struct SessionCtx {
    std::string tenant = "anonymous";
    metrics::Counter* tenant_requests = nullptr;
    metrics::Counter* tenant_clips = nullptr;
  };
  /// Overload tracker feeding graceful degradation (guarded by
  /// pressure_mu_). `overloaded` spans from the first shed of a streak
  /// until recover_after_ms passes without one.
  struct Pressure {
    std::chrono::steady_clock::time_point overload_since{};
    std::chrono::steady_clock::time_point last_shed{};
    bool overloaded = false;
    bool degraded = false;
  };
  /// Releases tenant quota exactly once on every exit path of
  /// handle_score.
  class QuotaGuard {
   public:
    QuotaGuard(HotspotServer& server, const std::string& tenant,
               std::size_t clips)
        : server_(server), tenant_(tenant), clips_(clips) {}
    ~QuotaGuard() { release(); }
    void release() {
      if (!active_) return;
      active_ = false;
      server_.quota_release(tenant_, clips_);
    }
    QuotaGuard(const QuotaGuard&) = delete;
    QuotaGuard& operator=(const QuotaGuard&) = delete;

   private:
    HotspotServer& server_;
    const std::string& tenant_;
    std::size_t clips_;
    bool active_ = true;
  };

  void accept_loop();
  void session(std::shared_ptr<Socket> sock);
  /// `arrival_ns` is the trace-clock instant the request frame started
  /// arriving (0 when tracing was off at receipt) — the begin timestamp
  /// of the serve.recv span.
  void handle_score(Socket& sock, SessionCtx& ctx, std::string_view body,
                    std::uint64_t arrival_ns);
  void handle_swap(Socket& sock, std::string_view body);
  void send_error(Socket& sock, ErrorCode code, const std::string& message,
                  std::uint32_t retry_after_ms = 0);
  /// kBusy + retry-after hint; `deadline` marks an expired-deadline
  /// rejection (vs a load shed) in the stats.
  void send_busy(Socket& sock, const std::string& message, bool deadline);

  /// Reserves global scoring capacity for `clips` against
  /// busy_max_inflight_clips. Returns false (and records the shed)
  /// when the ceiling would be exceeded; always true when no ceiling.
  bool begin_scoring(std::size_t clips);
  void end_scoring(std::size_t clips);
  void record_shed();
  /// Ends the overload streak (recovering fp32 if degraded) once
  /// recover_after_ms has passed without a shed.
  void update_pressure_after_success();
  bool degraded_mode() const;

  /// Blocks until the tenant has `clips` of budget or the server is
  /// stopping (returns false). Rejecting oversized requests is the
  /// caller's job (a request > tenant_quota_clips would deadlock here).
  bool quota_acquire(const std::string& tenant, std::size_t clips);
  void quota_release(const std::string& tenant, std::size_t clips);

  ModelRegistry& registry_;
  ServeConfig config_;
  Listener listener_;
  TaskPool workers_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  // Live sessions, so drain can wake sockets blocked in recv.
  std::mutex sessions_mu_;
  std::vector<std::weak_ptr<Socket>> sessions_;

  mutable std::mutex quota_mu_;
  std::condition_variable quota_cv_;
  std::map<std::string, TenantBudget> tenants_;

  // Load shedding + degradation state.
  std::atomic<std::size_t> scoring_inflight_{0};
  mutable std::mutex pressure_mu_;
  Pressure pressure_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  FlightRecorder flight_;
  std::chrono::steady_clock::time_point started_;

  telemetry::JsonlStream telemetry_;
};

}  // namespace hsdl::serve
