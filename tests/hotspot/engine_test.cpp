// InferenceEngine unit tests: batching policy (flush on full batch, on
// idle — queue empty and no submission still enqueuing — and on
// shutdown drain), config validation, the zero-steady-state allocation
// property of the engine's workspace arena, bitwise equivalence with
// the serial per-clip inference path, and unscorable clip windows
// rejected on the submitting thread.
#include "hotspot/engine/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/scanner.hpp"
#include "layout/generator.hpp"

namespace hsdl::hotspot {
namespace {

CnnDetectorConfig small_config() {
  CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 8;
  config.feature.nm_per_px = 4.0;  // 1200 nm window -> 300 px raster
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

/// Pins the global pool to `n` threads for one test, restoring on exit.
/// Tests that assert queued-pipeline behavior (flush counters, drain
/// interleavings) pin 2 so the engine does not collapse to the inline
/// path when the host — like one-core CI — gives the pool one worker.
struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) : saved(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved); }
  std::size_t saved;
};

TEST(EngineConfigTest, RejectsNonsense) {
  EngineConfig zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(zero_batch.validate(), CheckError);

  EngineConfig tiny_queue;
  tiny_queue.max_batch = 64;
  tiny_queue.queue_capacity = 8;
  EXPECT_THROW(tiny_queue.validate(), CheckError);

  EXPECT_NO_THROW(EngineConfig{}.validate());
}

TEST(EngineConfigTest, ConstructorValidates) {
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 0;
  EXPECT_THROW(InferenceEngine(detector, config), CheckError);
}

TEST(EngineTest, PartialBatchFlushesWhenSubmissionCompletes) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 8;
  InferenceEngine engine(detector, config);

  const std::vector<layout::Clip> clips = make_clips(3, 7);
  const std::vector<double> probs = engine.score(clips);
  ASSERT_EQ(probs.size(), clips.size());
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 3u);
  // The submission fits in the queue, so it lands atomically and rides
  // one batch. 3 < max_batch, so it cannot have flushed full, and the
  // engine stays live after scoring, so it was not a drain: the batcher
  // flushed because the queue ran empty with no submission open.
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flush_full, 0u);
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_timeout, 0u);
}

TEST(EngineTest, FullBatchFlushesWithoutWaiting) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 4;
  InferenceEngine engine(detector, config);

  const std::vector<layout::Clip> clips = make_clips(4, 11);
  const std::vector<double> probs = engine.score(clips);
  ASSERT_EQ(probs.size(), 4u);
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.flush_full + stats.flush_drain, 1u);
}

TEST(EngineTest, ShutdownDrainsOutstandingRequests) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 64;
  InferenceEngine engine(detector, config);

  const std::vector<layout::Clip> clips = make_clips(5, 13);
  std::vector<double> probs;
  std::thread producer(
      [&] { probs = engine.score(clips); });
  // Wait until every request is queued, then shut down: whether the
  // batch flushed idle before the shutdown or drains during it, the
  // blocked producer must still get real results.
  while (engine.stats().requests < clips.size()) std::this_thread::yield();
  engine.shutdown();
  producer.join();

  ASSERT_EQ(probs.size(), clips.size());
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, clips.size());
  EXPECT_GE(stats.flush_drain + stats.flush_idle + stats.flush_full, 1u);
}

TEST(EngineTest, ScoreAfterShutdownThrows) {
  const CnnDetector detector(small_config());
  InferenceEngine engine(detector);
  engine.shutdown();
  const std::vector<layout::Clip> clips = make_clips(1, 17);
  EXPECT_THROW(engine.score(clips), CheckError);
}

TEST(EngineTest, MatchesSerialPerClipPathBitwise) {
  const CnnDetector detector(small_config());
  const std::vector<layout::Clip> clips = make_clips(9, 19);

  std::vector<double> reference;
  for (const layout::Clip& clip : clips)
    reference.push_back(detector.predict_probability(clip));

  ThreadCountGuard guard(2);
  EngineConfig config;
  config.max_batch = 4;  // forces 9 clips across multiple batches
  InferenceEngine engine(detector, config);
  const std::vector<double> probs = engine.score(clips);
  ASSERT_EQ(probs.size(), reference.size());
  for (std::size_t i = 0; i < probs.size(); ++i)
    EXPECT_EQ(probs[i], reference[i]) << "clip " << i;  // bitwise
}

TEST(EngineTest, ArenaAllocationsPlateauAcrossRepeatedBatches) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 4;  // each 4-clip submission lands as one full batch
  InferenceEngine engine(detector, config);

  // Warmup rounds grow the arena to the batch-of-4 high-water mark.
  const std::vector<layout::Clip> clips = make_clips(4, 23);
  for (int round = 0; round < 5; ++round) engine.score(clips);
  const EngineStats warm = engine.stats();
  EXPECT_GT(warm.arena_bytes_reserved, 0u);
  for (int round = 0; round < 3; ++round) engine.score(clips);
  const EngineStats steady = engine.stats();
  // Same-shaped batches after warmup are served entirely from the pool.
  EXPECT_EQ(steady.arena_allocations, warm.arena_allocations);
  EXPECT_GT(steady.arena_reuses, warm.arena_reuses);
  EXPECT_EQ(steady.arena_bytes_reserved, warm.arena_bytes_reserved);
}

TEST(EngineTest, ScoreLabeledMatchesScore) {
  const CnnDetector detector(small_config());
  const std::vector<layout::Clip> clips = make_clips(5, 29);
  std::vector<layout::LabeledClip> labeled;
  for (const layout::Clip& c : clips)
    labeled.push_back({c, layout::HotspotLabel::kHotspot});

  InferenceEngine engine(detector);
  const std::vector<double> direct = engine.score(clips);
  const std::vector<double> via_labeled = engine.score_labeled(labeled);
  ASSERT_EQ(direct.size(), via_labeled.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(direct[i], via_labeled[i]);
}

TEST(EngineTest, ConcurrentProducersAllComplete) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 8;
  InferenceEngine engine(detector, config);

  constexpr std::size_t kProducers = 3;
  std::vector<std::vector<layout::Clip>> inputs;
  std::vector<std::vector<double>> outputs(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p)
    inputs.push_back(make_clips(6, 31 + p));

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back(
        [&, p] { outputs[p] = engine.score(inputs[p]); });
  for (std::thread& t : producers) t.join();

  for (std::size_t p = 0; p < kProducers; ++p) {
    ASSERT_EQ(outputs[p].size(), inputs[p].size());
    for (std::size_t i = 0; i < outputs[p].size(); ++i)
      EXPECT_EQ(outputs[p][i],
                detector.predict_probability(inputs[p][i]))
          << "producer " << p << " clip " << i;
  }
  EXPECT_EQ(engine.stats().requests, kProducers * 6u);
}

TEST(EngineTest, SlowProducerSubmissionsFlushSeparately) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  EngineConfig config;
  config.max_batch = 8;
  InferenceEngine engine(detector, config);

  // A slow producer: a 2-clip submission, then a 1-clip submission
  // 40 ms later. The first must not wait for the second — it flushes
  // the moment it has finished enqueuing — so each rides its own batch.
  const std::vector<layout::Clip> first = make_clips(2, 37);
  const std::vector<layout::Clip> second = make_clips(1, 41);
  std::vector<double> first_probs, second_probs;
  std::thread early([&] { first_probs = engine.score(first); });
  early.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::thread late([&] { second_probs = engine.score(second); });
  late.join();

  ASSERT_EQ(first_probs.size(), 2u);
  ASSERT_EQ(second_probs.size(), 1u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.flush_idle, 2u);
  EXPECT_EQ(stats.flush_timeout, 0u);
  EXPECT_EQ(stats.flush_full, 0u);
  EXPECT_EQ(stats.flush_drain, 0u);
}

TEST(EngineTest, SequentialSmallSubmissionsNeverWaitOnAClock) {
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());
  InferenceEngine engine(detector);  // default config

  // The shape of a hierarchical scan at pool width 2: many small
  // submissions from one caller, each a partial batch. Every one
  // flushes as soon as it has landed, in a batch of its own.
  const std::vector<layout::Clip> clips = make_clips(3, 53);
  for (int call = 0; call < 20; ++call) {
    const std::vector<double> probs = engine.score(clips);
    ASSERT_EQ(probs.size(), clips.size());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 60u);
  EXPECT_EQ(stats.batches, 20u);
  EXPECT_EQ(stats.flush_idle, 20u);
  EXPECT_EQ(stats.flush_timeout, 0u);
}

TEST(EngineTest, SingleWorkerCollapsesToInlinePath) {
  ThreadCountGuard guard(1);
  const CnnDetector detector(small_config());
  const std::vector<layout::Clip> clips = make_clips(9, 43);

  std::vector<double> reference;
  for (const layout::Clip& clip : clips)
    reference.push_back(detector.predict_probability(clip));

  EngineConfig config;
  config.max_batch = 4;  // 9 clips -> 3 inline batches
  InferenceEngine engine(detector, config);
  const std::vector<double> probs = engine.score(clips);
  ASSERT_EQ(probs.size(), reference.size());
  for (std::size_t i = 0; i < probs.size(); ++i)
    EXPECT_EQ(probs[i], reference[i]) << "clip " << i;  // bitwise

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, clips.size());
  EXPECT_EQ(stats.inline_batches, 3u);
  EXPECT_EQ(stats.batches, 3u);
  // No queue, no batcher: the queued flush reasons never fire.
  EXPECT_EQ(stats.flush_full + stats.flush_idle + stats.flush_timeout +
                stats.flush_drain,
            0u);
}

TEST(EngineTest, InlinePathServesConcurrentCallersAndLabeledClips) {
  ThreadCountGuard guard(1);
  const CnnDetector detector(small_config());
  InferenceEngine engine(detector);

  const std::vector<layout::Clip> clips = make_clips(5, 47);
  std::vector<layout::LabeledClip> labeled;
  for (const layout::Clip& c : clips)
    labeled.push_back({c, layout::HotspotLabel::kNonHotspot});

  std::vector<double> direct, via_labeled;
  std::thread a([&] { direct = engine.score(clips); });
  std::thread b([&] { via_labeled = engine.score_labeled(labeled); });
  a.join();
  b.join();

  ASSERT_EQ(direct.size(), via_labeled.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(direct[i], via_labeled[i]);
  EXPECT_EQ(engine.stats().requests, 2 * clips.size());
  EXPECT_GE(engine.stats().inline_batches, 2u);
}

TEST(EngineTest, UnscorableWindowThrowsAtTheCaller) {
  // At pool width 2 the batcher thread extracts; a window it could not
  // take must throw here, on the submitting thread, before anything is
  // queued.
  ThreadCountGuard guard(2);
  const CnnDetector detector(small_config());  // 4 nm/px, 12 blocks
  InferenceEngine engine(detector);

  std::vector<layout::Clip> clips = make_clips(3, 59);
  clips[1].window = geom::Rect::from_xywh(0, 0, 1200, 1000);  // 300x250 px
  EXPECT_THROW(engine.score(clips), CheckError);
  clips[1].window = geom::Rect::from_xywh(0, 0, 1202, 1202);  // 300.5 px
  EXPECT_THROW(engine.score(clips), CheckError);
  EXPECT_EQ(engine.stats().requests, 0u);

  // The engine is unharmed and still scores good windows.
  clips[1] = make_clips(1, 61)[0];
  const std::vector<double> probs = engine.score(clips);
  ASSERT_EQ(probs.size(), clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i)
    EXPECT_EQ(probs[i], detector.predict_probability(clips[i]));
}

TEST(DetectorConfigTest, ValidateRejectsNonsense) {
  CnnDetectorConfig bad = small_config();
  bad.feature.coeffs = 0;
  EXPECT_THROW(bad.validate(), CheckError);

  bad = small_config();
  bad.feature.blocks_per_side = 0;
  EXPECT_THROW(bad.validate(), CheckError);

  bad = small_config();
  bad.feature.nm_per_px = -1.0;
  EXPECT_THROW(bad.validate(), CheckError);

  bad = small_config();
  bad.validation_fraction = 1.5;
  EXPECT_THROW(bad.validate(), CheckError);

  bad = small_config();
  bad.shift = 0.75;
  EXPECT_THROW(bad.validate(), CheckError);

  EXPECT_NO_THROW(small_config().validate());
  EXPECT_THROW(CnnDetector{bad}, CheckError);
}

TEST(ScanConfigTest, ValidateForRejectsIncompatibleWindow) {
  const CnnDetector detector(small_config());  // 4 nm/px, 12 blocks
  ScanConfig incompatible;
  incompatible.window_size = 1000;  // 250 px, not divisible by 12
  incompatible.stride = 1000;
  EXPECT_THROW(incompatible.validate_for(detector), CheckError);

  ScanConfig fractional;
  fractional.window_size = 1202;  // 300.5 px: not an integer raster
  fractional.stride = 1202;
  EXPECT_THROW(fractional.validate_for(detector), CheckError);

  ScanConfig good;  // 1200 nm -> 300 px, 300 % 12 == 0
  EXPECT_NO_THROW(good.validate_for(detector));
}

}  // namespace
}  // namespace hsdl::hotspot
