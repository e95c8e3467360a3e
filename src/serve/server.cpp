#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace hsdl::serve {

void ServeConfig::validate() const {
  HSDL_CHECK_MSG(session_workers > 0,
                 "serve config: session_workers must be positive");
  HSDL_CHECK_MSG(max_clips_per_request > 0,
                 "serve config: max_clips_per_request must be positive");
  HSDL_CHECK_MSG(tenant_quota_clips >= max_clips_per_request,
                 "serve config: tenant_quota_clips ("
                     << tenant_quota_clips
                     << ") must admit a maximal request ("
                     << max_clips_per_request << ")");
  HSDL_CHECK_MSG(busy_max_inflight_clips == 0 ||
                     busy_max_inflight_clips >= max_clips_per_request,
                 "serve config: busy_max_inflight_clips ("
                     << busy_max_inflight_clips
                     << ") must admit a maximal request ("
                     << max_clips_per_request
                     << ") or every such request sheds forever");
}

HotspotServer::HotspotServer(ModelRegistry& registry,
                             const ServeConfig& config)
    : registry_(registry),
      config_(config),
      listener_((config.validate(), config.port)),
      workers_(config.session_workers),
      flight_(config.flight_recorder_size),
      started_(std::chrono::steady_clock::now()),
      telemetry_(config.telemetry_path) {
  acceptor_ = std::thread([this] { accept_loop(); });
  HSDL_LOG(kInfo) << "hsdl_serve listening on 127.0.0.1:" << port() << " ("
                  << config_.session_workers << " session workers)";
}

HotspotServer::~HotspotServer() { shutdown(); }

void HotspotServer::shutdown() {
  if (stopping_.exchange(true)) return;
  // 1. No new sessions: closing the listener unblocks accept().
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  // 2. Abort quota waiters; their sessions answer kShuttingDown.
  quota_cv_.notify_all();
  // 3. Wake idle sessions blocked in recv with a read-side shutdown.
  //    Sessions mid-request keep their write side and flush the
  //    response before noticing the drain.
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (const std::weak_ptr<Socket>& weak : sessions_)
      if (std::shared_ptr<Socket> s = weak.lock()) s->shutdown_read();
  }
  // 4. Run every queued/active session to completion.
  workers_.shutdown(true);
  dump_flight_recorder("drain");
  HSDL_LOG(kInfo) << "hsdl_serve drained and stopped";
}

ServerStats HotspotServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void HotspotServer::accept_loop() {
  for (;;) {
    Socket sock = listener_.accept();
    if (!sock.valid()) return;  // listener closed: shutting down
    if (stopping_.load(std::memory_order_relaxed)) return;
    auto shared = std::make_shared<Socket>(std::move(sock));
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      // Compact dead entries so a long-lived server does not grow the
      // session list without bound.
      std::erase_if(sessions_,
                    [](const std::weak_ptr<Socket>& w) { return w.expired(); });
      sessions_.push_back(shared);
    }
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.sessions_accepted;
    }
    workers_.submit([this, shared] { session(shared); });
  }
}

void HotspotServer::send_error(Socket& sock, ErrorCode code,
                               const std::string& message,
                               std::uint32_t retry_after_ms) {
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.errors_sent;
  }
  if (metrics::enabled()) {
    static metrics::Counter& errors = metrics::counter("serve.errors_sent");
    errors.increment();
  }
  try {
    send_frame(sock, encode_frame(MsgType::kError,
                                  encode_error(ErrorMsg{code, message,
                                                        retry_after_ms})));
  } catch (const CheckError&) {
    // Peer already gone; the session loop will notice on its next read.
  }
}

void HotspotServer::send_busy(Socket& sock, const std::string& message,
                              bool deadline) {
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.busy_rejections;
    if (deadline) ++stats_.deadline_rejections;
  }
  // PR 8's reliability counters, folded into the metrics registry so
  // the stats surface and run reports see them next to the histograms.
  if (metrics::enabled()) {
    static metrics::Counter& busy = metrics::counter("serve.busy_rejections");
    static metrics::Counter& ddl =
        metrics::counter("serve.deadline_rejections");
    busy.increment();
    if (deadline) ddl.increment();
  }
  send_error(sock, ErrorCode::kBusy, message, config_.retry_after_ms);
}

bool HotspotServer::begin_scoring(std::size_t clips) {
  if (config_.busy_max_inflight_clips == 0) return true;
  // Atomic reservation: racing requests cannot jointly exceed the
  // ceiling by both passing a check-then-add.
  const std::size_t prior =
      scoring_inflight_.fetch_add(clips, std::memory_order_acq_rel);
  if (prior + clips <= config_.busy_max_inflight_clips) return true;
  scoring_inflight_.fetch_sub(clips, std::memory_order_acq_rel);
  if (metrics::enabled()) {
    static metrics::Counter& sheds = metrics::counter("serve.load_sheds");
    sheds.increment();
  }
  return false;
}

void HotspotServer::end_scoring(std::size_t clips) {
  if (config_.busy_max_inflight_clips == 0) return;
  scoring_inflight_.fetch_sub(clips, std::memory_order_acq_rel);
}

std::size_t HotspotServer::tenant_inflight(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(quota_mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.in_flight;
}

void HotspotServer::session(std::shared_ptr<Socket> sock) {
  SessionCtx ctx;
  std::string buf;
  const std::string context = "serve session";
  sock->set_fault_site("serve.net");
  if (config_.session_timeout_ms > 0)
    sock->set_timeouts(config_.session_timeout_ms, config_.session_timeout_ms);
  try {
    std::uint64_t arrival_ns = 0;
    while (recv_frame(*sock, buf, context,
                      trace::enabled() ? &arrival_ns : nullptr)) {
      Frame frame;
      try {
        frame = decode_frame(buf, context);
      } catch (const io::IoError& e) {
        // Corrupt frame: report the position, then close — after a
        // framing error the byte stream can no longer be trusted.
        send_error(*sock, ErrorCode::kBadFrame,
                   std::string("bad frame at byte ") +
                       std::to_string(e.offset()) + ": " + e.what());
        return;
      }
      switch (frame.type) {
        case MsgType::kHello: {
          const Hello hello = decode_hello(frame.body, context);
          if (hello.version != kProtocolVersion) {
            send_error(*sock, ErrorCode::kBadVersion,
                       "unsupported protocol version " +
                           std::to_string(hello.version));
            return;
          }
          if (!hello.tenant.empty()) ctx.tenant = hello.tenant;
          // Resolve the tenant's instruments once; the per-request path
          // then records through cached pointers instead of taking the
          // registry lock per request.
          ctx.tenant_requests = &metrics::counter(
              "serve.tenant." + ctx.tenant + ".requests");
          ctx.tenant_clips =
              &metrics::counter("serve.tenant." + ctx.tenant + ".clips");
          send_frame(*sock,
                     encode_frame(MsgType::kHelloAck,
                                  encode_hello_ack(HelloAck{
                                      kProtocolVersion,
                                      registry_.generation()})));
          break;
        }
        case MsgType::kScoreRequest:
          handle_score(*sock, ctx, frame.body, arrival_ns);
          break;
        case MsgType::kSwapModel:
          handle_swap(*sock, frame.body);
          break;
        case MsgType::kStatsRequest:
          send_frame(*sock, encode_frame(
                                MsgType::kStatsResponse,
                                encode_stats_response(
                                    StatsResponse{stats_json()})));
          break;
        case MsgType::kBye:
          return;
        default:
          send_error(*sock, ErrorCode::kBadFrame,
                     "unexpected message type");
          return;
      }
    }
  } catch (const NetTimeout& e) {
    // Watchdog: the peer went silent mid-frame or refused to drain its
    // response past session_timeout_ms. Reap the session — the worker
    // frees up; any quota was already released by handle_score's guard.
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.sessions_reaped;
    }
    if (metrics::enabled()) {
      static metrics::Counter& reaped =
          metrics::counter("serve.sessions_reaped");
      reaped.increment();
    }
    dump_flight_recorder("session-fatal");
    HSDL_LOG(kWarn) << "session (" << ctx.tenant << ") reaped: " << e.what();
  } catch (const CheckError& e) {
    // Mid-frame EOF, send failure, or malformed message body: the
    // session dies, the server lives.
    dump_flight_recorder("session-fatal");
    HSDL_LOG(kWarn) << "session (" << ctx.tenant << ") closed: " << e.what();
  } catch (const std::exception& e) {
    // TaskPool tasks must not throw — anything escaping here would take
    // the process down. Contain it: the session dies, the server lives.
    dump_flight_recorder("session-fatal");
    HSDL_LOG(kError) << "session (" << ctx.tenant << ") failed: " << e.what();
  }
}

void HotspotServer::handle_score(Socket& sock, SessionCtx& ctx,
                                 std::string_view body,
                                 std::uint64_t arrival_ns) {
  WallTimer timer;
  FlightRecord flight;
  flight.set_tenant(ctx.tenant);
  // Commits the record on every exit path — success, rejection, or an
  // exception unwinding into the session loop — and closes the
  // request's root span. trace_begin/trace_id are filled in once the
  // request is decoded (the id travels inside the frame).
  struct FlightCommit {
    FlightRecorder& ring;
    FlightRecord& rec;
    WallTimer& timer;
    std::uint64_t trace_id = 0;
    std::uint64_t trace_begin = 0;
    ~FlightCommit() {
      rec.total_ms = static_cast<float>(timer.millis());
      ring.record(rec);
      if (trace_id != 0 && trace_begin != 0)
        trace::emit("serve.request", trace_begin, trace::timestamp_ns(),
                    trace_id);
    }
  } commit{flight_, flight, timer};

  // Stage 1: decode. The trace clock is read only while tracing is
  // globally on (the id that tags these spans is inside the body being
  // decoded, so timestamps are captured first, attributed after).
  const bool tracing = trace::enabled();
  const std::uint64_t decode_begin = tracing ? trace::timestamp_ns() : 0;
  WallTimer stage;
  const ScoreRequest request = decode_score_request(body, "score request");
  flight.decode_ms = static_cast<float>(stage.millis());
  flight.request_id = request.request_id;
  flight.clips = static_cast<std::uint32_t>(request.clips.size());
  flight.deadline_ms = request.deadline_ms;
  const std::uint64_t tid =
      tracing && request.sampled ? request.trace_id : 0;
  commit.trace_id = tid;
  commit.trace_begin = arrival_ns != 0 ? arrival_ns : decode_begin;
  if (tid != 0) {
    const std::uint64_t decode_end = trace::timestamp_ns();
    if (arrival_ns != 0)
      trace::emit("serve.recv", arrival_ns, decode_begin, tid);
    trace::emit("serve.decode", decode_begin, decode_end, tid);
  }
  const std::size_t n = request.clips.size();
  if (n > config_.max_clips_per_request) {
    flight.error = static_cast<std::uint8_t>(ErrorCode::kTooManyClips);
    send_error(sock, ErrorCode::kTooManyClips,
               "request of " + std::to_string(n) + " clips exceeds limit " +
                   std::to_string(config_.max_clips_per_request));
    return;
  }
  if (n > config_.tenant_quota_clips) {
    flight.error = static_cast<std::uint8_t>(ErrorCode::kQuotaExceeded);
    send_error(sock, ErrorCode::kQuotaExceeded,
               "request of " + std::to_string(n) +
                   " clips exceeds the tenant budget of " +
                   std::to_string(config_.tenant_quota_clips));
    return;
  }
  // Absolute deadline from the relative wire budget, anchored to
  // receipt (client and server clocks are not shared).
  const auto received = std::chrono::steady_clock::now();
  auto deadline = hotspot::InferenceEngine::kNoDeadline;
  if (request.deadline_ms > 0)
    deadline = received + std::chrono::milliseconds(request.deadline_ms);
  // Chaos site: a slow handler (kDelay sleeps here — after the deadline
  // was anchored, so tests can force an expiry deterministically).
  if (fault::armed()) fault::probe("serve.handler");
  if (deadline != hotspot::InferenceEngine::kNoDeadline &&
      std::chrono::steady_clock::now() >= deadline) {
    flight.error = static_cast<std::uint8_t>(ErrorCode::kBusy);
    send_busy(sock, "deadline expired before scoring", true);
    return;
  }
  // Stage 2: quota + admission. One span covers the wait for tenant
  // budget — the time a greedy neighbor cost this request.
  const std::uint64_t quota_begin = tid != 0 ? trace::timestamp_ns() : 0;
  stage.reset();
  const bool admitted = quota_acquire(ctx.tenant, n);
  flight.quota_ms = static_cast<float>(stage.millis());
  if (tid != 0)
    trace::emit("serve.quota", quota_begin, trace::timestamp_ns(), tid);
  if (!admitted) {
    flight.error = static_cast<std::uint8_t>(ErrorCode::kShuttingDown);
    send_error(sock, ErrorCode::kShuttingDown, "server is draining");
    return;
  }
  // Every reply below releases the quota before it is sent: a client
  // that has read its answer must never observe the clips still
  // charged (the guard only covers exceptions unwinding past here).
  QuotaGuard quota(*this, ctx.tenant, n);
  if (!begin_scoring(n)) {
    quota.release();
    flight.error = static_cast<std::uint8_t>(ErrorCode::kBusy);
    send_busy(sock, "server at capacity (" +
                        std::to_string(config_.busy_max_inflight_clips) +
                        " in-flight clips)",
              false);
    return;
  }
  // Acquire the model once per request: a hot-swap mid-request does
  // not retarget us, and the handle keeps the old engine alive until
  // scoring finishes.
  const std::shared_ptr<ServingModel> model = registry_.acquire();
  ScoreResponse response;
  response.request_id = request.request_id;
  response.model_generation = model->generation();
  // Stage 3: score through the engine; a sampled request's id rides
  // into the micro-batcher and tags the queue-wait/extract/forward
  // spans there.
  std::vector<double> probs;
  stage.reset();
  try {
    probs = model->engine().score(request.clips, deadline, tid);
  } catch (const hotspot::DeadlineExceeded& e) {
    end_scoring(n);
    quota.release();
    flight.score_ms = static_cast<float>(stage.millis());
    flight.error = static_cast<std::uint8_t>(ErrorCode::kBusy);
    send_busy(sock, e.what(), true);
    return;
  } catch (const std::bad_alloc&) {
    end_scoring(n);
    quota.release();
    flight.score_ms = static_cast<float>(stage.millis());
    flight.error = static_cast<std::uint8_t>(ErrorCode::kInternal);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.internal_errors;
    }
    send_error(sock, ErrorCode::kInternal, "allocation failure while scoring");
    return;
  } catch (const CheckError& e) {
    // A clip window the model cannot take: the engine rejects it on
    // this thread before queuing anything. The request is malformed;
    // the session stays usable.
    end_scoring(n);
    quota.release();
    flight.score_ms = static_cast<float>(stage.millis());
    flight.error = static_cast<std::uint8_t>(ErrorCode::kBadFrame);
    send_error(sock, ErrorCode::kBadFrame,
               std::string("unscorable request: ") + e.what());
    return;
  }
  end_scoring(n);
  flight.score_ms = static_cast<float>(stage.millis());
  // A corrupted (non-finite) score must never reach a client as a
  // ranked probability: answer kInternal, keep the session usable.
  for (const double p : probs) {
    if (std::isfinite(p)) continue;
    quota.release();
    flight.error = static_cast<std::uint8_t>(ErrorCode::kInternal);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.internal_errors;
    }
    send_error(sock, ErrorCode::kInternal, "non-finite score");
    return;
  }
  // Stage 4: rank.
  const std::uint64_t rank_begin = tid != 0 ? trace::timestamp_ns() : 0;
  stage.reset();
  response.hits = rank_hits(probs, model->detector().decision_threshold());
  flight.rank_ms = static_cast<float>(stage.millis());
  if (tid != 0)
    trace::emit("serve.rank", rank_begin, trace::timestamp_ns(), tid);
  quota.release();
  // Stage 5: send.
  const std::uint64_t send_begin = tid != 0 ? trace::timestamp_ns() : 0;
  stage.reset();
  send_frame(sock, encode_frame(MsgType::kScoreResponse,
                                encode_score_response(response)));
  flight.send_ms = static_cast<float>(stage.millis());
  if (tid != 0)
    trace::emit("serve.send", send_begin, trace::timestamp_ns(), tid);
  const double seconds = timer.seconds();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.requests_served;
    stats_.clips_scored += n;
  }
  {
    // Per-tenant served totals for the stats surface; same lock the
    // quota path already takes twice per request.
    std::lock_guard<std::mutex> lk(quota_mu_);
    TenantBudget& budget = tenants_[ctx.tenant];
    ++budget.requests;
    budget.clips += n;
  }
  if (metrics::enabled()) {
    static metrics::Counter& requests = metrics::counter("serve.requests");
    static metrics::Counter& clips = metrics::counter("serve.clips");
    static metrics::Histogram& latency = metrics::histogram(
        "serve.request_seconds", {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
    // Stage latency histograms: the decomposition of request_seconds a
    // p99 regression is diagnosed with. One bucket family for all
    // stages keeps them comparable.
    static const std::vector<double> kStageBounds = {1e-5, 1e-4, 1e-3,
                                                     1e-2, 1e-1, 1.0};
    static metrics::Histogram& decode_h =
        metrics::histogram("serve.stage.decode_seconds", kStageBounds);
    static metrics::Histogram& quota_h =
        metrics::histogram("serve.stage.quota_seconds", kStageBounds);
    static metrics::Histogram& score_h =
        metrics::histogram("serve.stage.score_seconds", kStageBounds);
    static metrics::Histogram& rank_h =
        metrics::histogram("serve.stage.rank_seconds", kStageBounds);
    static metrics::Histogram& send_h =
        metrics::histogram("serve.stage.send_seconds", kStageBounds);
    requests.increment();
    clips.add(n);
    latency.record(seconds);
    decode_h.record(flight.decode_ms * 1e-3);
    quota_h.record(flight.quota_ms * 1e-3);
    score_h.record(flight.score_ms * 1e-3);
    rank_h.record(flight.rank_ms * 1e-3);
    send_h.record(flight.send_ms * 1e-3);
    if (ctx.tenant_requests != nullptr) ctx.tenant_requests->increment();
    if (ctx.tenant_clips != nullptr) ctx.tenant_clips->add(n);
  }
  if (telemetry_.enabled()) {
    json::Value rec = json::Value::object();
    rec.set("event", "serve.request");
    rec.set("tenant", ctx.tenant);
    rec.set("clips", n);
    rec.set("generation", response.model_generation);
    rec.set("seconds", seconds);
    telemetry_.emit(rec);
  }
}

void HotspotServer::handle_swap(Socket& sock, std::string_view body) {
  const SwapModel swap = decode_swap_model(body, "swap request");
  try {
    const std::uint64_t generation =
        registry_.swap_from_checkpoint(swap.checkpoint_path);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.swaps;
    }
    send_frame(sock, encode_frame(MsgType::kSwapAck,
                                  encode_swap_ack(SwapAck{generation})));
  } catch (const CheckError& e) {
    send_error(sock, ErrorCode::kSwapFailed,
               std::string("swap rejected: ") + e.what());
  }
}

std::string HotspotServer::stats_json() const {
  json::Value v = json::Value::object();
  v.set("schema", "hsdl-serve-stats-v1");
  v.set("uptime_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count());
  const ServerStats s = stats();
  json::Value server = json::Value::object();
  server.set("sessions_accepted", s.sessions_accepted);
  server.set("requests_served", s.requests_served);
  server.set("clips_scored", s.clips_scored);
  server.set("errors_sent", s.errors_sent);
  server.set("swaps", s.swaps);
  server.set("busy_rejections", s.busy_rejections);
  server.set("deadline_rejections", s.deadline_rejections);
  server.set("internal_errors", s.internal_errors);
  server.set("sessions_reaped", s.sessions_reaped);
  v.set("server", std::move(server));
  {
    json::Value tenants = json::Value::object();
    std::lock_guard<std::mutex> lk(quota_mu_);
    for (const auto& [name, budget] : tenants_) {
      json::Value t = json::Value::object();
      t.set("inflight_clips", budget.in_flight);
      t.set("requests", budget.requests);
      t.set("clips", budget.clips);
      tenants.set(name, std::move(t));
    }
    v.set("tenants", std::move(tenants));
  }
  // The active engine's counters. acquire() throws before the first
  // install; a stats probe that early just omits the section.
  try {
    const std::shared_ptr<ServingModel> model = registry_.acquire();
    const hotspot::EngineStats es = model->engine().stats();
    json::Value engine = json::Value::object();
    engine.set("generation", model->generation());
    engine.set("requests", es.requests);
    engine.set("batches", es.batches);
    engine.set("flush_full", es.flush_full);
    engine.set("flush_idle", es.flush_idle);
    engine.set("flush_drain", es.flush_drain);
    engine.set("inline_batches", es.inline_batches);
    engine.set("deadline_expired", es.deadline_expired);
    engine.set("max_queue_depth", es.max_queue_depth);
    engine.set("arena_allocations", es.arena_allocations);
    engine.set("arena_reuses", es.arena_reuses);
    engine.set("arena_bytes_reserved", es.arena_bytes_reserved);
    v.set("engine", std::move(engine));
  } catch (const CheckError&) {
  }
  json::Value flight = json::Value::object();
  flight.set("capacity", flight_.capacity());
  flight.set("recorded", flight_.total_recorded());
  v.set("flight", std::move(flight));
  if (metrics::enabled())
    v.set("metrics", metrics::summary_json(metrics::snapshot()));
  return v.dump();
}

void HotspotServer::dump_flight_recorder(const std::string& reason) const {
  if (config_.flight_dump_path.empty()) return;
  const std::size_t n = flight_.dump_jsonl(config_.flight_dump_path, reason);
  HSDL_LOG(kInfo) << "flight recorder: dumped " << n << " records to "
                  << config_.flight_dump_path << " (" << reason << ")";
}

bool HotspotServer::quota_acquire(const std::string& tenant,
                                  std::size_t clips) {
  std::unique_lock<std::mutex> lk(quota_mu_);
  TenantBudget& budget = tenants_[tenant];
  quota_cv_.wait(lk, [&] {
    return stopping_.load(std::memory_order_relaxed) ||
           budget.in_flight + clips <= config_.tenant_quota_clips;
  });
  if (stopping_.load(std::memory_order_relaxed)) return false;
  budget.in_flight += clips;
  if (metrics::enabled()) {
    static metrics::Gauge& inflight = metrics::gauge("serve.inflight_clips");
    inflight.set(static_cast<double>(budget.in_flight));
  }
  return true;
}

void HotspotServer::quota_release(const std::string& tenant,
                                  std::size_t clips) {
  {
    std::lock_guard<std::mutex> lk(quota_mu_);
    TenantBudget& budget = tenants_[tenant];
    budget.in_flight -= std::min(budget.in_flight, clips);
  }
  quota_cv_.notify_all();
}

}  // namespace hsdl::serve
