// Seeded generator step: everything a run consumes is written here, from
// the seed alone, before the measured process starts.
//
//   dense.gds   one flat cell tiled with generator clips — a dense,
//               non-repeating 24 x 24 um layout
//   hier.gds    four macro types (generator tiles plus a nested UNIT
//               array) in nested AREFs over a 192 x 192 um chip, plus
//               six top-level routing wires that break reuse for the
//               windows they cross
//   model.ckpt  the Table 1 detector, trained briefly on litho-labelled
//               clips
//   serve_<c>.glf  the clip stream client c sends, 8 clips per request
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "layout/gdsii.hpp"
#include "layout/generator.hpp"
#include "layout/glf.hpp"
#include "layout/layout.hpp"
#include "litho/labeler.hpp"

namespace perfbench {
namespace {

using hsdl::geom::Polygon;
using hsdl::geom::Rect;
namespace layout = hsdl::layout;

constexpr std::int64_t kDenseSide = 24000;  // nm
constexpr std::int64_t kMacro = 2 * kWindow;
constexpr std::int64_t kBlockMacros = 2;   // BLOCK = 2x2 MACRO array
constexpr std::int64_t kQuadBlocks = 20;   // quadrant = 20x20 BLOCK array
constexpr int kMacroTypes = 4;
/// Routing wires, one per scan band (kBandRows window rows) from this
/// fixed list. Only bands holding a keyless window or a first-seen key
/// send windows to the engine, and each such band costs an engine batch,
/// so fixing the bands keeps the scan's work the same for every seed.
/// Bands 0 and 1 reach into the flat-checked lower-left region.
constexpr std::int64_t kWireBands[] = {0, 1, 3, 4, 7, 9};
constexpr std::int64_t kWireWindows = 4;
/// Local shapes per macro tile. HierSource::window_key walks a macro's
/// local shapes, so a fixed count keeps the key cost the same per seed.
constexpr std::size_t kTileShapes = 8;
constexpr std::size_t kServeRequests = 64;  // per client, cycled
constexpr std::size_t kTrainClips = 160;

layout::GeneratorConfig tile_config() {
  layout::GeneratorConfig cfg;
  cfg.clip_size = kWindow;
  cfg.stress = 0.45;
  return cfg;
}

void add_rect(layout::GdsCell& cell, const Rect& r) {
  cell.boundaries.push_back(Polygon::from_rect(r));
  cell.layers.push_back(1);
}

/// Corner markers pin a cell's bounding box to exactly [0, side)^2, so the
/// scan grid stays aligned to the cell pitch whatever the tiles hold.
void add_corner_markers(layout::GdsCell& cell, std::int64_t side) {
  add_rect(cell, Rect::from_xywh(0, 0, 40, 40));
  add_rect(cell, Rect::from_xywh(side - 40, side - 40, 40, 40));
}

void write_dense(std::uint64_t seed, const std::string& path) {
  const layout::Layout chip =
      layout::generate_chip(kDenseSide, kDenseSide, tile_config(), seed);
  layout::GdsCell top;
  top.name = "DENSE";
  for (const Rect& r : chip.shapes()) add_rect(top, r);
  add_corner_markers(top, kDenseSide);
  layout::GdsLibrary lib;
  lib.name = "PERFBENCH_DENSE";
  lib.cells.push_back(std::move(top));
  layout::write_gds_file(path, lib);
}

void write_hier(std::uint64_t seed, const std::string& path) {
  layout::GdsLibrary lib;
  lib.name = "PERFBENCH_HIER";

  layout::GdsCell unit;
  unit.name = "UNIT";
  add_rect(unit, Rect::from_xywh(40, 40, 100, 100));
  add_rect(unit, Rect::from_xywh(180, 40, 60, 220));
  lib.cells.push_back(unit);

  layout::ClipGenerator gen(tile_config(), seed * 7919 + 17);
  for (int m = 0; m < kMacroTypes; ++m) {
    // MACRO: bottom row two generator tiles (their first kTileShapes
    // shapes), top row a nested 8x4 UNIT array — one macro is 2x2 scan
    // windows.
    layout::GdsCell macro;
    macro.name = "MACRO" + std::to_string(m);
    for (std::int64_t t = 0; t < 2; ++t) {
      layout::Clip tile = gen.generate();
      while (tile.shapes.size() < kTileShapes) tile = gen.generate();
      for (std::size_t i = 0; i < kTileShapes; ++i)
        add_rect(macro, tile.shapes[i].shifted({t * kWindow, 0}));
    }
    add_corner_markers(macro, kMacro);
    macro.refs.push_back({"UNIT", {0, kWindow}, 8, 4, 300, 300});
    lib.cells.push_back(std::move(macro));

    layout::GdsCell block;
    block.name = "BLOCK" + std::to_string(m);
    block.refs.push_back({"MACRO" + std::to_string(m), {0, 0},
                          static_cast<std::int32_t>(kBlockMacros),
                          static_cast<std::int32_t>(kBlockMacros), kMacro,
                          kMacro});
    lib.cells.push_back(std::move(block));
  }

  layout::GdsCell top;
  top.name = "TOP";
  const std::int64_t block_side = kBlockMacros * kMacro;
  const std::int64_t quad_side = kQuadBlocks * block_side;
  for (int q = 0; q < kMacroTypes; ++q) {
    top.refs.push_back({"BLOCK" + std::to_string(q),
                        {(q % 2) * quad_side, (q / 2) * quad_side},
                        static_cast<std::int32_t>(kQuadBlocks),
                        static_cast<std::int32_t>(kQuadBlocks), block_side,
                        block_side});
  }
  // Each wire sits inside one window row and spans exactly kWireWindows
  // windows, so every seed has the same number of keyless windows.
  hsdl::Rng rng(seed * 104729 + 3);
  for (const std::int64_t band : kWireBands) {
    const std::int64_t first_row = band * static_cast<std::int64_t>(kBandRows);
    const bool in_check = first_row < kHierCheckWindows;
    const std::int64_t last_row =
        std::min(first_row + static_cast<std::int64_t>(kBandRows),
                 in_check ? kHierCheckWindows : kHierWindowsPerSide) - 1;
    const std::int64_t row = rng.uniform_int(first_row, last_row);
    const std::int64_t col = rng.uniform_int(
        0, (in_check ? kHierCheckWindows : kHierWindowsPerSide) - kWireWindows);
    add_rect(top, Rect::from_xywh(col * kWindow + 100, row * kWindow + 560,
                                  kWireWindows * kWindow - 200, 60));
  }
  lib.cells.push_back(std::move(top));
  layout::write_gds_file(path, lib);
}

void write_model(std::uint64_t seed, const std::string& path) {
  layout::GeneratorConfig gen_cfg = tile_config();
  gen_cfg.stress = 0.5;
  layout::ClipGenerator gen(gen_cfg, seed * 31337 + 5);
  const hsdl::litho::HotspotLabeler labeler;
  std::vector<layout::LabeledClip> train;
  while (train.size() < kTrainClips) {
    layout::LabeledClip lc;
    lc.clip = gen.generate();
    lc.label = labeler.label(lc.clip);
    if (lc.label != layout::HotspotLabel::kUnknown)
      train.push_back(std::move(lc));
  }
  hsdl::hotspot::CnnDetectorConfig cfg = model_config();
  cfg.seed = seed;
  cfg.cnn.seed = seed + 42;
  cfg.biased.rounds = 1;
  cfg.biased.initial.max_iters = 120;
  cfg.biased.initial.decay_step = 100;
  cfg.biased.initial.validate_every = 40;
  cfg.biased.initial.patience = 3;
  hsdl::hotspot::CnnDetector detector(cfg);
  detector.train(train);
  detector.save(path);
}

void write_serve_streams(std::uint64_t seed, const std::string& dir) {
  for (std::size_t c = 0; c < kServeClients; ++c) {
    layout::ClipGenerator gen(tile_config(), seed * 6151 + 101 + c);
    std::vector<layout::LabeledClip> stream;
    for (std::size_t i = 0; i < kServeRequests * kServeClipsPerRequest; ++i) {
      layout::LabeledClip lc;
      lc.clip = gen.generate().normalized();
      stream.push_back(std::move(lc));
    }
    layout::write_glf_file(serve_stream_path(dir, c), stream);
  }
}

}  // namespace

hsdl::hotspot::CnnDetectorConfig model_config() {
  return hsdl::hotspot::CnnDetectorConfig{};
}

std::string dense_gds_path(const std::string& dir) { return dir + "/dense.gds"; }
std::string hier_gds_path(const std::string& dir) { return dir + "/hier.gds"; }
std::string model_path(const std::string& dir) { return dir + "/model.ckpt"; }
std::string serve_stream_path(const std::string& dir, std::size_t client) {
  return dir + "/serve_" + std::to_string(client) + ".glf";
}

void generate_inputs(std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const double t0 = now_s();
  write_dense(seed, dense_gds_path(dir));
  write_hier(seed, hier_gds_path(dir));
  write_serve_streams(seed, dir);
  const double t1 = now_s();
  write_model(seed, model_path(dir));
  std::fprintf(stderr, "[perfbench] inputs for seed %llu: layouts %.2f s, "
               "model %.2f s\n",
               static_cast<unsigned long long>(seed), t1 - t0, now_s() - t1);
}

}  // namespace perfbench
