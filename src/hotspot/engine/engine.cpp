#include "hotspot/engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace hsdl::hotspot {
namespace {

/// Emits `name` once per distinct trace id among the batch's requests —
/// a sampled request sees exactly one extract/forward span per batch it
/// rode in, tagged with its own id — and once untagged when no request
/// was sampled (preserving the PR 4 stage spans for whole-run traces).
/// Batches are small (<= max_batch), so the quadratic dedup is free
/// next to the forward pass it annotates.
template <typename RequestVec>
void emit_batch_spans(const char* name, std::uint64_t begin_ns,
                      std::uint64_t end_ns, const RequestVec& reqs) {
  if (!trace::enabled()) return;
  bool any = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t id = reqs[i].trace_id;
    if (id == 0) continue;
    bool dup = false;
    for (std::size_t j = 0; j < i && !dup; ++j) dup = reqs[j].trace_id == id;
    if (dup) continue;
    trace::emit(name, begin_ns, end_ns, id);
    any = true;
  }
  if (!any) trace::emit(name, begin_ns, end_ns, 0);
}

/// The i-th of a run of Clips laid out `stride` bytes apart (a Clip
/// array, or the `clip` members of a LabeledClip array).
const layout::Clip* clip_at(const layout::Clip* first, std::size_t stride,
                            std::size_t i) {
  return reinterpret_cast<const layout::Clip*>(
      reinterpret_cast<const unsigned char*>(first) + i * stride);
}

}  // namespace

void EngineConfig::validate() const {
  HSDL_CHECK_MSG(max_batch > 0, "engine config: max_batch must be positive");
  HSDL_CHECK_MSG(queue_capacity >= max_batch,
                 "engine config: queue_capacity ("
                     << queue_capacity
                     << ") must hold at least one full batch (max_batch "
                     << max_batch << ")");
}

InferenceEngine::InferenceEngine(const CnnDetector& detector,
                                 const EngineConfig& config)
    : config_(config), detector_(&detector) {
  config_.validate();
  HSDL_CHECK_MSG(!config_.quantized || detector.quantized_net() != nullptr,
                 "engine config: quantized serving requires a quantized "
                 "detector (call CnnDetector::quantize() first)");
  const fte::FeatureTensorConfig& f = detector.extractor().config();
  feat_ = f.coeffs * f.blocks_per_side * f.blocks_per_side;
  in_shape_ = detector.model().input_shape();
  batch_.reserve(config_.max_batch);
  features_.reserve(config_.max_batch * feat_);
  // Single-worker collapse: with one pool worker the batcher thread
  // would only time-slice the caller's core, so don't spawn it; score()
  // runs the same run_batch synchronously instead.
  inline_mode_ = num_threads() <= 1;
  if (!inline_mode_) batcher_ = std::thread([this] { batcher_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::uint64_t InferenceEngine::model_fingerprint() const {
  // The detector scores int8 only when a quantized net exists, so key
  // the memo on the mode it actually runs.
  const bool int8 = scores_quantized() && detector_->quantized_net() != nullptr;
  std::lock_guard<std::mutex> lk(fingerprint_mu_);
  std::optional<std::uint64_t>& memo = model_fingerprint_[int8 ? 1 : 0];
  if (!memo) memo = detector_->model_fingerprint(int8);
  return *memo;
}

std::vector<double> InferenceEngine::score(
    std::span<const layout::Clip> clips,
    std::chrono::steady_clock::time_point deadline, std::uint64_t trace_id) {
  std::vector<double> out(clips.size());
  score_into(clips, out, deadline, trace_id);
  return out;
}

std::size_t InferenceEngine::submit(
    const layout::Clip* first, std::size_t clip_stride, std::size_t n,
    double* out, Completion* done,
    std::chrono::steady_clock::time_point deadline, std::uint64_t trace_id) {
  // The trace-clock read happens only for sampled requests while
  // tracing is on, so the disarmed submission path stays clock-free.
  const std::uint64_t enqueue_ns =
      trace_id != 0 && trace::enabled() ? trace::timestamp_ns() : 0;
  std::unique_lock<std::mutex> lk(queue_mu_);
  ++open_submissions_;
  // Closes the submission on every exit path (all queued, stopping, or
  // a throw) and wakes the batcher, which may be holding a partial
  // batch open for this submission's clips.
  struct Close {
    InferenceEngine& engine;
    std::unique_lock<std::mutex>& lk;
    ~Close() {
      if (!lk.owns_lock()) lk.lock();
      --engine.open_submissions_;
      lk.unlock();
      engine.queue_cv_.notify_one();
    }
  } close{*this, lk};
  std::size_t submitted = 0;
  while (submitted < n) {
    space_cv_.wait(lk, [&] {
      return stopping_ || queue_.size() < config_.queue_capacity;
    });
    if (stopping_) break;
    const std::size_t chunk =
        std::min(n - submitted, config_.queue_capacity - queue_.size());
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = submitted; i < submitted + chunk; ++i)
      queue_.push_back(Request{clip_at(first, clip_stride, i), out + i, done,
                               now, deadline, trace_id, enqueue_ns});
    submitted += chunk;
    requests_ += chunk;
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
    if (metrics::enabled()) {
      static metrics::Gauge& depth = metrics::gauge("engine.queue_depth");
      depth.set(static_cast<double>(queue_.size()));
    }
    // The last chunk's wake-up comes from Close, once the submission no
    // longer counts as open.
    if (submitted < n) queue_cv_.notify_one();
  }
  return submitted;
}

void InferenceEngine::wait_and_check(Completion& done, std::size_t submitted,
                                     std::size_t total) {
  // Requests that never made it into the queue (engine shut down
  // mid-submission) will not be completed by the drain; account for
  // them up front, then wait for the submitted ones — the drain
  // guarantees those complete — so `done` is never unwound while the
  // batcher still points at it.
  std::size_t expired = 0;
  {
    std::unique_lock<std::mutex> lk(done.m);
    done.remaining -= total - submitted;
    done.cv.wait(lk, [&] { return done.remaining == 0; });
    expired = done.expired;
  }
  HSDL_CHECK_MSG(submitted == total, "score on a shut-down engine");
  if (expired > 0)
    throw DeadlineExceeded("deadline expired for " + std::to_string(expired) +
                           " of " + std::to_string(total) +
                           " queued clips (dropped without a forward pass)");
}

void InferenceEngine::score_into(
    std::span<const layout::Clip> clips, std::span<double> out,
    std::chrono::steady_clock::time_point deadline, std::uint64_t trace_id) {
  HSDL_CHECK_MSG(out.size() == clips.size(),
                 "score_into: " << clips.size() << " clips vs " << out.size()
                                << " result slots");
  HSDL_CHECK_MSG(!shut_down_.load(std::memory_order_relaxed),
                 "score on a shut-down engine");
  if (clips.empty()) return;
  // Chaos site: a simulated allocation failure on the submission path
  // (caller thread, so the bad_alloc unwinds to the caller — never into
  // the batcher thread, which must not throw).
  if (fault::armed()) fault::alloc_guard("engine.score.alloc");
  if (deadline != kNoDeadline && std::chrono::steady_clock::now() >= deadline)
    throw DeadlineExceeded("deadline already expired at submission");
  score_clips(clips.data(), sizeof(layout::Clip), clips.size(), out.data(),
              deadline, trace_id);
}

std::vector<double> InferenceEngine::score_labeled(
    std::span<const layout::LabeledClip> clips) {
  HSDL_CHECK_MSG(!shut_down_.load(std::memory_order_relaxed),
                 "score on a shut-down engine");
  std::vector<double> out(clips.size());
  if (clips.empty()) return out;
  score_clips(&clips[0].clip, sizeof(layout::LabeledClip), clips.size(),
              out.data(), kNoDeadline, 0);
  return out;
}

void InferenceEngine::score_clips(
    const layout::Clip* first, std::size_t clip_stride, std::size_t n,
    double* out, std::chrono::steady_clock::time_point deadline,
    std::uint64_t trace_id) {
  // A window the extractor cannot take throws here, on the caller's
  // thread: on the batcher it would have nowhere to go.
  const fte::FeatureTensorExtractor& ex = detector_->extractor();
  for (std::size_t i = 0; i < n; ++i)
    ex.check_window(clip_at(first, clip_stride, i)->window);
  if (inline_mode_) {
    score_inline(first, clip_stride, n, out, trace_id);
    return;
  }
  Completion done;
  done.remaining = n;
  const std::size_t submitted =
      submit(first, clip_stride, n, out, &done, deadline, trace_id);
  wait_and_check(done, submitted, n);
}

void InferenceEngine::expire_request(const Request& r) {
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  if (r.done == nullptr) return;
  // Same notify-under-the-lock discipline as run_batch: the waiter owns
  // the Completion on its stack and frees it the moment wait() returns.
  std::lock_guard<std::mutex> lk(r.done->m);
  ++r.done->expired;
  if (--r.done->remaining == 0) r.done->cv.notify_all();
}

void InferenceEngine::score_inline(const layout::Clip* first,
                                   std::size_t clip_stride, std::size_t n,
                                   double* out, std::uint64_t trace_id) {
  std::lock_guard<std::mutex> lk(inline_mu_);
  for (std::size_t done = 0; done < n;) {
    const std::size_t count = std::min(config_.max_batch, n - done);
    batch_.clear();
    for (std::size_t i = done; i < done + count; ++i)
      batch_.push_back(Request{clip_at(first, clip_stride, i), out + i,
                               nullptr, {}, {}, trace_id, 0});
    run_batch(FlushReason::kInline);
    done += count;
  }
  std::lock_guard<std::mutex> qlk(queue_mu_);
  requests_ += n;
}

void InferenceEngine::shutdown() {
  if (shut_down_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

void InferenceEngine::batcher_loop() {
  for (;;) {
    FlushReason reason = FlushReason::kFull;
    double batch_form_seconds = 0.0;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping and fully drained
      // Batch formation clock: from "work is available" to "batch
      // dispatched" — the time the flush policy spent collecting.
      WallTimer form_timer;
      batch_.clear();
      // Adaptive micro-batching: keep collecting until the batch is
      // full, or until the queue is empty and no submission is still
      // enqueuing. Then no clip can join this batch, so waiting any
      // longer would only add latency; there is no flush clock.
      for (;;) {
        // Pop into the batch, dropping any request whose caller
        // deadline has already passed — it never occupies a forward
        // pass; its waiter gets DeadlineExceeded instead.
        const auto now = std::chrono::steady_clock::now();
        while (!queue_.empty() && batch_.size() < config_.max_batch) {
          const Request r = queue_.front();
          queue_.pop_front();
          if (metrics::enabled()) {
            static metrics::Histogram& qwait = metrics::histogram(
                "engine.queue_wait_seconds",
                {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
            qwait.record(
                std::chrono::duration<double>(now - r.enqueued).count());
          }
          // The queue-wait span closes here — the request leaves the
          // queue — whether it proceeds into a batch or expires.
          if (r.enqueue_ns != 0)
            trace::emit("engine.queue_wait", r.enqueue_ns,
                        trace::timestamp_ns(), r.trace_id);
          if (r.deadline <= now) {
            expire_request(r);
            continue;
          }
          batch_.push_back(r);
        }
        space_cv_.notify_all();
        if (batch_.size() >= config_.max_batch) {
          reason = FlushReason::kFull;
          break;
        }
        if (stopping_) {
          reason = FlushReason::kDrain;
          break;
        }
        queue_cv_.wait(lk, [&] {
          return stopping_ || !queue_.empty() || open_submissions_ == 0;
        });
        if (queue_.empty() && !stopping_) {
          reason = FlushReason::kIdle;
          break;
        }
      }
      batch_form_seconds = form_timer.seconds();
    }
    if (batch_.empty()) continue;  // every popped request had expired
    if (metrics::enabled()) {
      static metrics::Histogram& form = metrics::histogram(
          "engine.batch_form_seconds", {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
      form.record(batch_form_seconds);
    }
    run_batch(reason);
  }
}

void InferenceEngine::run_batch(FlushReason reason) {
  const std::vector<std::size_t>& in = in_shape_;
  const std::size_t n = batch_.size();
  // Stage 1: extract feature tensors straight into the slab, parallel
  // over clips (disjoint slices; the arena is never touched here).
  features_.resize(n * feat_);  // within reserved capacity: no alloc
  const std::uint64_t begin_ns = trace::enabled() ? trace::timestamp_ns() : 0;
  WallTimer timer;
  const fte::FeatureTensorExtractor& ex = detector_->extractor();
  parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      ex.extract_into(*batch_[i].clip,
                      std::span<float>(features_.data() + i * feat_, feat_));
  });
  const double extract_seconds = timer.seconds();
  emit_batch_spans("engine.extract", begin_ns, trace::timestamp_ns(), batch_);
  timer.reset();
  nn::Tensor probs;
  const std::uint64_t fwd_begin_ns =
      trace::enabled() ? trace::timestamp_ns() : 0;
  {
    // Stage 2: move the slab into a batch tensor (no copy), run the
    // arena-backed forward pass, move the storage back so the slab
    // keeps its capacity for the next batch.
    nn::Tensor x = nn::Tensor::from_data({n, in[0], in[1], in[2]},
                                         std::move(features_));
    // score_batch routes to the active serving model: int8 when this
    // engine is pinned quantized (the server's degraded engine) or the
    // detector has its quantized net enabled, fp32 otherwise.
    probs = detector_->score_batch(x, arena_, scores_quantized());
    features_ = std::move(x.vec());
  }
  emit_batch_spans("engine.forward", fwd_begin_ns, trace::timestamp_ns(),
                   batch_);
  const double forward_seconds = timer.seconds();
  for (std::size_t i = 0; i < n; ++i) {
    double p = static_cast<double>(probs.at(i, kHotspotIndex));
    // Chaos site: corrupt a score to NaN. Value corruption, not a
    // throw — this runs on the batcher thread, which must not unwind;
    // the serving layer detects the non-finite score and answers
    // kInternal without killing the session.
    if (fault::armed()) p = fault::corrupt_score("engine.nan", p);
    *batch_[i].out = p;
  }
  arena_.recycle(std::move(probs));

  batches_.fetch_add(1, std::memory_order_relaxed);
  switch (reason) {
    case FlushReason::kFull:
      flush_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kIdle:
      flush_idle_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDrain:
      flush_drain_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kInline:
      inline_batches_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    arena_stats_ = arena_.stats();
  }
  if (metrics::enabled()) {
    static metrics::Counter& batches = metrics::counter("engine.batches");
    static metrics::Histogram& bsize = metrics::histogram(
        "engine.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
    static metrics::Histogram& ext = metrics::histogram(
        "engine.extract_seconds", {1e-4, 1e-3, 1e-2, 1e-1, 1.0});
    static metrics::Histogram& fwd = metrics::histogram(
        "engine.forward_seconds", {1e-4, 1e-3, 1e-2, 1e-1, 1.0});
    // Occupancy: what fraction of max_batch each forward pass carried.
    // A distribution centered low says callers submit small batches and
    // the batcher flushes them as soon as they are complete.
    static metrics::Histogram& fill = metrics::histogram(
        "engine.batch_fill", {0.125, 0.25, 0.5, 0.75, 1.0});
    batches.increment();
    bsize.record(static_cast<double>(n));
    fill.record(static_cast<double>(n) /
                static_cast<double>(config_.max_batch));
    ext.record(extract_seconds);
    fwd.record(forward_seconds);
  }
  // Results are in place; wake the waiters (inline batches have none —
  // the caller is this thread). Notify while still holding the
  // completion's mutex: the waiter owns the Completion on its stack and
  // destroys it the moment wait() returns, so an unlocked notify could
  // touch a condition variable that no longer exists.
  for (const Request& r : batch_) {
    if (r.done == nullptr) continue;
    std::lock_guard<std::mutex> lk(r.done->m);
    if (--r.done->remaining == 0) r.done->cv.notify_all();
  }
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    s.requests = requests_;
    s.max_queue_depth = max_queue_depth_;
  }
  s.batches = batches_.load(std::memory_order_relaxed);
  s.flush_full = flush_full_.load(std::memory_order_relaxed);
  s.flush_idle = flush_idle_.load(std::memory_order_relaxed);
  s.flush_drain = flush_drain_.load(std::memory_order_relaxed);
  s.inline_batches = inline_batches_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s.arena_allocations = arena_stats_.allocations;
    s.arena_reuses = arena_stats_.reuses;
    s.arena_bytes_reserved = arena_stats_.bytes_reserved;
  }
  return s;
}

}  // namespace hsdl::hotspot
