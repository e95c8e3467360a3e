// Batched streaming inference engine (DESIGN.md §11).
//
// An InferenceEngine owns a trained CnnDetector and serves high-volume
// scoring: callers submit clips from any thread into a bounded MPSC
// queue; one batcher thread forms adaptive micro-batches (flushing when
// a batch reaches max_batch, or as soon as the queue is empty and no
// caller is still enqueuing — there is no flush clock), extracts their
// feature tensors in parallel straight into the engine's one input
// slab, runs one batched CNN pass over it, and completes the callers
// before it forms the next batch. All activations and the softmax
// output are drawn from a per-engine WorkspaceArena, so the steady
// state performs no heap allocations.
//
// Determinism contract: every per-sample computation in the CNN forward
// path is arithmetically independent of the other samples in the batch
// (per-sample conv2d_direct, row-independent dense layers, per-row
// softmax), so the probability the engine returns for a clip is bitwise
// identical to the serial predict_probability() path regardless of how
// requests landed in batches. The determinism suite asserts this at 1,
// 2 and 8 threads.
//
// Single-worker collapse: on a host where the pool has one worker
// (num_threads() <= 1 at construction), the queue and batcher handoff
// is pure overhead — two threads time-slicing one core. The engine then
// spawns no thread at all: score() runs max_batch-sized chunks through
// the batcher's own extract + forward + complete step on the calling
// thread, so results stay bitwise identical while the engine is never
// slower than per-clip. The mode is fixed at construction; later
// set_num_threads() calls do not change it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "hotspot/detector.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {

/// Thrown by score()/score_into() when the caller's deadline expired:
/// either already past at submission, or it passed while requests sat
/// in the micro-batcher's queue (those are dropped without ever
/// occupying a forward pass — the load-shedding property the serving
/// front-end relies on under overload, DESIGN.md §14).
class DeadlineExceeded : public CheckError {
 public:
  using CheckError::CheckError;
};

struct EngineConfig {
  /// Flush threshold: a batch never exceeds this many clips.
  std::size_t max_batch = 64;
  /// Bounded request queue capacity; producers block when it is full
  /// (backpressure instead of unbounded memory growth).
  std::size_t queue_capacity = 1024;

  /// Rejects nonsense configurations (max_batch == 0, queue smaller
  /// than a batch) with a positioned error. The engine constructor
  /// calls this.
  void validate() const;
};

/// Why a batch was dispatched. kIdle: the queue ran empty with no
/// submission still enqueuing, so nothing more could join the batch.
/// kInline marks batches run synchronously by the single-worker collapse
/// (no queue, no flush policy involved).
enum class FlushReason : std::uint8_t { kFull, kIdle, kDrain, kInline };

/// Point-in-time counters; readable while the engine is live.
struct EngineStats {
  std::uint64_t requests = 0;       ///< clips enqueued
  std::uint64_t batches = 0;        ///< forward passes run
  std::uint64_t flush_full = 0;     ///< batches dispatched at max_batch
  /// Partial batches dispatched because every submission had finished
  /// enqueuing and the queue was empty.
  std::uint64_t flush_idle = 0;
  /// Always 0: the engine has no flush timeout. Kept only so existing
  /// readers of the field still compile.
  std::uint64_t flush_timeout = 0;
  std::uint64_t flush_drain = 0;    ///< batches dispatched by shutdown
  /// Batches run synchronously by the single-worker collapse (also
  /// counted in `batches`; zero when the engine runs its batcher
  /// thread).
  std::uint64_t inline_batches = 0;
  /// Queued requests dropped because their deadline passed before the
  /// batcher reached them (each raised DeadlineExceeded at its caller).
  std::uint64_t deadline_expired = 0;
  std::size_t max_queue_depth = 0;  ///< high-water queue occupancy
  /// Arena counters: after warmup, `arena_allocations` stays flat while
  /// `arena_reuses` grows — the zero-steady-state-allocation property.
  std::uint64_t arena_allocations = 0;
  std::uint64_t arena_reuses = 0;
  std::size_t arena_bytes_reserved = 0;
};

/// Streaming scorer around a trained CnnDetector. Thread-safe for
/// concurrent score() callers; single engine, many producers.
class InferenceEngine {
 public:
  /// The detector must outlive the engine and must not be retrained
  /// while the engine is live (the engine only touches const inference
  /// surfaces).
  explicit InferenceEngine(const CnnDetector& detector,
                           const EngineConfig& config = {});
  ~InferenceEngine();
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  const EngineConfig& config() const { return config_; }
  const CnnDetector& detector() const { return *detector_; }
  /// CnnDetector::model_fingerprint of the model this engine scores
  /// with. It hashes every weight, so it is computed on first use and
  /// memoized rather than paid on every scan or at construction. Scan
  /// journals and CellScanCache bindings key on it.
  std::uint64_t model_fingerprint() const;

  /// "No deadline" sentinel for the deadline parameters below.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Hotspot probabilities index-aligned with `clips`; blocks until all
  /// are scored. Bitwise identical to calling
  /// detector().predict_probability() per clip. Throws CheckError,
  /// before anything is queued, when a clip's window fails the
  /// extractor's check_window. With a deadline, throws
  /// DeadlineExceeded when it is already past at submission or passes
  /// while requests wait in the batcher queue (expired requests are
  /// dropped without a forward pass; an inline-mode batch that already
  /// started extraction runs to completion). A nonzero `trace_id` tags
  /// this submission's engine-stage spans (queue-wait, extract,
  /// forward) with the caller's trace context (common/trace) so a
  /// sampled serving request stitches into one tree across threads;
  /// it has no effect while tracing is disabled.
  std::vector<double> score(
      std::span<const layout::Clip> clips,
      std::chrono::steady_clock::time_point deadline = kNoDeadline,
      std::uint64_t trace_id = 0);

  /// As score(), writing into caller-owned storage (out.size() must
  /// equal clips.size()). Lets batch pipelines avoid the result vector.
  void score_into(std::span<const layout::Clip> clips, std::span<double> out,
                  std::chrono::steady_clock::time_point deadline = kNoDeadline,
                  std::uint64_t trace_id = 0);

  /// score() over the clips of a labeled set (labels are ignored) —
  /// avoids materializing a separate Clip vector for evaluation.
  std::vector<double> score_labeled(
      std::span<const layout::LabeledClip> clips);

  /// Stops accepting work, scores every queued request, joins the
  /// batcher thread. Idempotent; the destructor calls it. Outstanding
  /// score() calls complete with real results.
  void shutdown();

  EngineStats stats() const;

 private:
  struct Completion {
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = 0;
    /// Requests of this submission the batcher dropped past-deadline;
    /// the waiter raises DeadlineExceeded when nonzero.
    std::size_t expired = 0;
  };
  struct Request {
    const layout::Clip* clip = nullptr;
    double* out = nullptr;
    Completion* done = nullptr;
    /// Enqueue instant; feeds the engine.queue_wait_seconds histogram.
    std::chrono::steady_clock::time_point enqueued;
    /// Caller deadline (kNoDeadline = none); checked by the batcher
    /// when it pops the request.
    std::chrono::steady_clock::time_point deadline;
    /// Caller trace context (0 = unsampled); stamps the engine-stage
    /// spans this request passes through.
    std::uint64_t trace_id = 0;
    /// Enqueue instant on the trace clock, captured only for sampled
    /// requests while tracing is on (0 otherwise) — the begin timestamp
    /// of the engine.queue_wait span.
    std::uint64_t enqueue_ns = 0;
  };
  /// Scores `n` clips laid out `clip_stride` bytes apart into
  /// out[0, n): inline under the single-worker collapse, otherwise
  /// through the queue, blocking until every clip has completed. The
  /// stride lets LabeledClip arrays score without materializing a
  /// pointer table.
  void score_clips(const layout::Clip* first, std::size_t clip_stride,
                   std::size_t n, double* out,
                   std::chrono::steady_clock::time_point deadline,
                   std::uint64_t trace_id);
  /// Enqueues one submission and returns how many of its clips were
  /// queued — fewer than `n` only when the engine began stopping, in
  /// which case the caller must still wait for the queued ones to drain
  /// before unwinding the Completion they point at. Each free-space
  /// chunk lands under one lock, so a submission that fits in the queue
  /// lands atomically; the submission counts as open until this
  /// returns, so the batcher never idle-flushes ahead of its clips.
  std::size_t submit(const layout::Clip* first, std::size_t clip_stride,
                     std::size_t n, double* out, Completion* done,
                     std::chrono::steady_clock::time_point deadline,
                     std::uint64_t trace_id);
  /// Completes a queued request as past-deadline (no forward pass).
  void expire_request(const Request& r);
  void wait_and_check(Completion& done, std::size_t submitted,
                      std::size_t total);
  /// Single-worker collapse: runs `n` clips through run_batch in
  /// max_batch chunks on the calling thread.
  void score_inline(const layout::Clip* first, std::size_t clip_stride,
                    std::size_t n, double* out, std::uint64_t trace_id);
  /// Extracts batch_ into features_, runs the forward pass, writes the
  /// results and completes the waiters.
  void run_batch(FlushReason reason);
  void batcher_loop();

  EngineConfig config_;
  const CnnDetector* detector_;
  std::size_t feat_ = 0;  // floats per clip feature tensor
  std::vector<std::size_t> in_shape_;  // model input CHW, fixed per detector

  // Request queue (producers -> batcher).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // batcher waits: work available
  std::condition_variable space_cv_;  // producers wait: capacity free
  std::deque<Request> queue_;
  /// submit() calls still enqueuing. With the queue empty and none
  /// open, no clip can join the pending batch, so the batcher flushes.
  std::size_t open_submissions_ = 0;
  bool stopping_ = false;
  std::size_t max_queue_depth_ = 0;
  std::uint64_t requests_ = 0;

  // The one slab: the batch's requests and their feature tensors
  // (capacity max_batch), plus the forward pass's arena. Only the thread
  // running run_batch touches them: the batcher, or under the
  // single-worker collapse a caller holding inline_mu_.
  std::vector<Request> batch_;
  std::vector<float> features_;
  nn::WorkspaceArena arena_;

  // Arena counters snapshotted after each batch so stats() never races
  // the arena itself.
  mutable std::mutex stats_mu_;
  nn::WorkspaceArena::Stats arena_stats_;

  // Stats (written by their owning thread, read via stats()).
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> flush_full_{0};
  std::atomic<std::uint64_t> flush_idle_{0};
  std::atomic<std::uint64_t> flush_drain_{0};
  std::atomic<std::uint64_t> inline_batches_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};

  // model_fingerprint() memo.
  mutable std::mutex fingerprint_mu_;
  mutable std::optional<std::uint64_t> model_fingerprint_;

  // Single-worker collapse (fixed at construction). inline_mu_
  // serializes concurrent score() callers over the slab and the arena.
  bool inline_mode_ = false;
  std::mutex inline_mu_;

  std::thread batcher_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace hsdl::hotspot
