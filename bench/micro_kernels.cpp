// Micro-benchmarks (google-benchmark) for the computational kernels under
// the paper's pipeline: GEMM, DCT (full vs partial), zig-zag, clip
// rasterization, feature tensor extraction, aerial-image simulation,
// hotspot labeling, and CNN forward/backward.
#include <benchmark/benchmark.h>

#include "common/parallel.hpp"
#include "fte/feature_tensor.hpp"
#include "hotspot/cnn.hpp"
#include "layout/generator.hpp"
#include "layout/raster.hpp"
#include "litho/labeler.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"
#include "nn/workspace.hpp"

namespace {

using namespace hsdl;

layout::Clip demo_clip(std::uint64_t seed = 9) {
  layout::GeneratorConfig cfg;
  cfg.stress = 0.45;
  layout::ClipGenerator gen(cfg, seed);
  return gen.generate();
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
  for (auto _ : state) {
    nn::matmul(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
  for (auto _ : state) {
    nn::gemm_naive(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                   0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

// Arg pair (size, threads); threads = 0 uses the hardware default.
void BM_GemmThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_num_threads(static_cast<std::size_t>(state.range(1)));
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
  for (auto _ : state) {
    nn::matmul(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmThreaded)->Args({256, 1})->Args({256, 0});

void BM_DctFull(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  fte::DctPlan plan(b);
  std::vector<float> in(b * b, 0.5f), out(b * b);
  for (auto _ : state) {
    plan.forward(in.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DctFull)->Arg(50)->Arg(100);

void BM_DctPartial(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  fte::DctPlan plan(b);
  std::vector<float> in(b * b, 0.5f), out(8 * 8);
  for (auto _ : state) {
    plan.partial(in.data(), 8, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DctPartial)->Arg(50)->Arg(100);

void BM_Rasterize(benchmark::State& state) {
  const layout::Clip clip = demo_clip();
  for (auto _ : state) {
    auto img = layout::rasterize(clip, 2.0);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_Rasterize);

void BM_FeatureTensorExtract(benchmark::State& state) {
  const layout::Clip clip = demo_clip();
  fte::FeatureTensorConfig cfg;
  cfg.coeffs = static_cast<std::size_t>(state.range(0));
  fte::FeatureTensorExtractor ex(cfg);
  for (auto _ : state) {
    auto ft = ex.extract(clip);
    benchmark::DoNotOptimize(ft.data.data());
  }
}
BENCHMARK(BM_FeatureTensorExtract)->Arg(16)->Arg(32)->Arg(64);

// Arg pair (clips, threads); threads = 0 uses the hardware default.
void BM_FeatureTensorBatch(benchmark::State& state) {
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i)
    clips.push_back(demo_clip(100 + i));
  set_num_threads(static_cast<std::size_t>(state.range(1)));
  fte::FeatureTensorExtractor ex;
  for (auto _ : state) {
    auto fts = ex.extract_batch(clips);
    benchmark::DoNotOptimize(fts.data());
  }
  set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FeatureTensorBatch)->Args({16, 1})->Args({16, 0});

void BM_AerialImage(benchmark::State& state) {
  const layout::Clip clip = demo_clip();
  litho::LithoSimulator sim;
  const layout::MaskImage mask = sim.rasterize(clip);
  for (auto _ : state) {
    auto img = sim.aerial(mask, sim.config().nominal);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_AerialImage);

void BM_HotspotLabel(benchmark::State& state) {
  litho::HotspotLabeler labeler;
  const layout::Clip clip = demo_clip();
  for (auto _ : state) {
    auto label = labeler.label(clip);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_HotspotLabel);

void BM_CnnForward(benchmark::State& state) {
  hotspot::HotspotCnn model;
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::Tensor x({batch, 32, 12, 12}, 0.5f);
  nn::WorkspaceArena ws;
  for (auto _ : state) {
    auto p = model.probabilities(x, ws);
    benchmark::DoNotOptimize(p.data());
    ws.recycle(std::move(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CnnForward)->Arg(1)->Arg(32);

void BM_CnnTrainStep(benchmark::State& state) {
  hotspot::HotspotCnn model;
  nn::Tensor x({32, 32, 12, 12}, 0.5f);
  nn::Tensor t({32, 2});
  for (std::size_t i = 0; i < 32; ++i) t.at(i, i % 2) = 1.0f;
  nn::SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    model.net().zero_grad();
    auto logits = model.net().forward(x, true);
    benchmark::DoNotOptimize(loss.forward(logits, t));
    model.net().backward(loss.backward());
  }
}
BENCHMARK(BM_CnnTrainStep);

void BM_ClipGenerate(benchmark::State& state) {
  layout::GeneratorConfig cfg;
  layout::ClipGenerator gen(cfg, 4);
  for (auto _ : state) {
    auto clip = gen.generate();
    benchmark::DoNotOptimize(clip.shapes.data());
  }
}
BENCHMARK(BM_ClipGenerate);

}  // namespace
