// GDSII writer and record table: 8-byte reals, write_gds -> read_hier_gds
// round-trips, the writer's range checks, the reader's UNITS check, and
// the flatten_cell oracle on in-memory libraries.
#include "layout/gdsii.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/io.hpp"
#include "layout/gds_stream.hpp"
#include "layout/generator.hpp"

namespace hsdl::layout {
namespace {

using geom::Polygon;
using geom::Rect;

TEST(GdsRealTest, ZeroRoundTrips) {
  EXPECT_EQ(to_gds_real(0.0), 0u);
  EXPECT_DOUBLE_EQ(from_gds_real(0), 0.0);
}

TEST(GdsRealTest, KnownEncodingOfOne) {
  // 1.0 = 1/16 * 16^1: exponent 65, mantissa 2^52.
  const std::uint64_t bits = to_gds_real(1.0);
  EXPECT_EQ(bits >> 56, 65u);
  EXPECT_DOUBLE_EQ(from_gds_real(bits), 1.0);
}

TEST(GdsRealTest, RoundTripsTypicalValues) {
  for (double v : {1e-9, 1e-3, 0.5, 2.0, 1e6, 3.14159265358979,
                   6.25e-10}) {
    EXPECT_NEAR(from_gds_real(to_gds_real(v)), v, v * 1e-12) << v;
    EXPECT_NEAR(from_gds_real(to_gds_real(-v)), -v, v * 1e-12) << -v;
  }
}

TEST(GdsRealTest, SignBit) {
  EXPECT_EQ(to_gds_real(-1.0) >> 63, 1u);
  EXPECT_EQ(to_gds_real(1.0) >> 63, 0u);
}

Clip demo_clip() {
  Clip c;
  c.window = Rect::from_xywh(0, 0, 1200, 1200);
  c.shapes = {Rect::from_xywh(100, 100, 300, 40),
              Rect::from_xywh(600, 200, 40, 500),
              Rect::from_xywh(0, 900, 1200, 60)};
  return c;
}

/// One cell holding the clip's shapes on `layer`.
GdsLibrary clip_library(const Clip& clip, std::int16_t layer = 1,
                        const std::string& cell_name = "CLIP") {
  GdsLibrary lib;
  GdsCell cell;
  cell.name = cell_name;
  for (const Rect& r : clip.shapes) {
    cell.boundaries.push_back(Polygon::from_rect(r));
    cell.layers.push_back(layer);
  }
  lib.cells.push_back(std::move(cell));
  return lib;
}

std::string serialized(const GdsLibrary& lib) {
  std::ostringstream os;
  write_gds(os, lib);
  return os.str();
}

HierLayout round_trip(const GdsLibrary& lib) {
  std::istringstream is(serialized(lib));
  return read_hier_gds(is);
}

std::vector<Rect> sorted(std::vector<Rect> v) {
  std::sort(v.begin(), v.end());
  return v;
}

geom::Area total_area(const std::vector<Rect>& rects) {
  geom::Area area = 0;
  for (const Rect& r : rects) area += r.area();
  return area;
}

TEST(GdsiiTest, ClipRoundTrip) {
  const Clip original = demo_clip();
  const HierLayout hier = round_trip(clip_library(original, 7, "TESTCLIP"));
  ASSERT_EQ(hier.cells().size(), 1u);
  EXPECT_EQ(hier.cells()[0].name, "TESTCLIP");
  // Same rectangles (decomposition of a rect boundary is itself).
  EXPECT_EQ(sorted(hier.flatten(7)), sorted(original.shapes));
}

TEST(GdsiiTest, UnitsRoundTrip) {
  // The default library is written in the 1 nm database unit the reader
  // requires; any other unit is refused rather than read as nm.
  GdsLibrary lib = clip_library(demo_clip());
  EXPECT_NO_THROW(round_trip(lib));
  lib.db_unit_meters = 1e-10;
  EXPECT_THROW(round_trip(lib), io::IoError);
}

TEST(GdsiiTest, LibraryNameFencesFingerprint) {
  GdsLibrary lib = clip_library(demo_clip());
  lib.name = "MYLIB";
  const std::uint64_t mine = round_trip(lib).fingerprint();
  lib.name = "OTHER";
  EXPECT_NE(round_trip(lib).fingerprint(), mine);
}

TEST(GdsiiTest, LayerFiltering) {
  Clip c = demo_clip();
  GdsLibrary lib = clip_library(c, 1);
  // Add one extra boundary on layer 2.
  lib.cells[0].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells[0].layers.push_back(2);
  const HierLayout loaded = round_trip(lib);
  EXPECT_EQ(loaded.flatten(1).size(), c.shapes.size());
  EXPECT_EQ(loaded.flatten(2).size(), 1u);
  EXPECT_TRUE(loaded.flatten(3).empty());
}

TEST(GdsiiTest, LShapedBoundaryDecomposes) {
  GdsLibrary lib;
  GdsCell cell;
  cell.name = "L";
  cell.boundaries.push_back(Polygon(
      {{0, 0}, {100, 0}, {100, 50}, {50, 50}, {50, 100}, {0, 100}}));
  cell.layers.push_back(1);
  lib.cells.push_back(cell);
  EXPECT_EQ(total_area(round_trip(lib).flatten(1)), 100 * 100 - 50 * 50);
}

TEST(GdsiiTest, MultipleCells) {
  GdsLibrary lib = clip_library(demo_clip(), 1, "A");
  GdsCell second;
  second.name = "B";
  second.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(5, 5, 20, 20)));
  second.layers.push_back(1);
  lib.cells.push_back(second);
  lib.cells[0].refs.push_back({"B", {2000, 0}});
  const HierLayout loaded = round_trip(lib);
  ASSERT_EQ(loaded.cells().size(), 2u);
  EXPECT_EQ(loaded.cells()[1].name, "B");
  EXPECT_EQ(loaded.cells()[loaded.top()].name, "A");
}

TEST(GdsiiTest, NegativeCoordinates) {
  GdsLibrary lib;
  GdsCell cell;
  cell.name = "NEG";
  cell.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(-500, -300, 100, 100)));
  cell.layers.push_back(1);
  lib.cells.push_back(cell);
  const std::vector<Rect> rects = round_trip(lib).flatten(1);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0].lo, (geom::Point{-500, -300}));
}

TEST(GdsiiTest, GeneratedClipsRoundTrip) {
  GeneratorConfig cfg;
  ClipGenerator gen(cfg, 99);
  for (int i = 0; i < 5; ++i) {
    const Clip c = gen.generate();
    EXPECT_EQ(total_area(c.shapes),
              total_area(round_trip(clip_library(c)).flatten(1)))
        << "clip " << i;
  }
}

/// A rectilinear staircase of 2 * steps + 2 vertices.
Polygon staircase(geom::Coord steps) {
  std::vector<geom::Point> ring = {{0, 0}};
  for (geom::Coord i = 0; i < steps; ++i) {
    ring.push_back({steps - i, i});
    ring.push_back({steps - i, i + 1});
  }
  ring.push_back({0, steps});
  return Polygon(std::move(ring));
}

TEST(GdsiiTest, WriterRejectsRecordPastTheLengthField) {
  // A closed XY ring of n vertices takes 8 * (n + 1) + 4 bytes: 8190
  // vertices fit the 16-bit record length, 8202 would wrap it.
  GdsLibrary lib;
  GdsCell cell;
  cell.name = "STAIR";
  cell.boundaries.push_back(staircase(4094));
  cell.layers.push_back(1);
  lib.cells.push_back(cell);
  EXPECT_EQ(total_area(round_trip(lib).flatten(1)), 4094 * 4095 / 2);
  lib.cells[0].boundaries[0] = staircase(4100);
  std::ostringstream os;
  EXPECT_THROW(write_gds(os, lib), CheckError);
}

TEST(GdsiiTest, WriterRejectsCoordinatesOutsideInt32) {
  GdsLibrary lib = clip_library(demo_clip());
  lib.cells[0].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(3'000'000'000, 0, 10, 10)));
  lib.cells[0].layers.push_back(1);
  std::ostringstream os;
  EXPECT_THROW(write_gds(os, lib), CheckError);
  // An AREF whose far corner (at + cols * pitch) leaves the range.
  GdsLibrary arrayed = clip_library(demo_clip(), 1, "UNIT");
  GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"UNIT", {0, 0}, 30000, 1, 100'000, 0});
  arrayed.cells.push_back(top);
  EXPECT_THROW(write_gds(os, arrayed), CheckError);
}

GdsLibrary hierarchical_lib() {
  GdsLibrary lib;
  GdsCell leaf;
  leaf.name = "VIA";
  leaf.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 40, 40)));
  leaf.layers.push_back(1);

  GdsCell mid;
  mid.name = "PAIR";
  mid.refs.push_back({"VIA", {0, 0}});
  mid.refs.push_back({"VIA", {100, 0}});

  GdsCell top;
  top.name = "TOP";
  top.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(500, 500, 60, 60)));
  top.layers.push_back(1);
  top.refs.push_back({"PAIR", {0, 0}});
  top.refs.push_back({"PAIR", {0, 200}});

  lib.cells = {leaf, mid, top};
  return lib;
}

TEST(GdsiiSrefTest, RefsRoundTrip) {
  const HierLayout loaded = round_trip(hierarchical_lib());
  ASSERT_EQ(loaded.cells().size(), 3u);
  const HierCell& top = loaded.cells()[2];
  ASSERT_EQ(top.placements.size(), 2u);
  EXPECT_EQ(loaded.cells()[top.placements[0].cell].name, "PAIR");
  EXPECT_EQ(top.placements[1].at, (geom::Point{0, 200}));
}

TEST(GdsiiSrefTest, FlattenResolvesHierarchy) {
  GdsLibrary lib = hierarchical_lib();
  auto rects = flatten_cell(lib, "TOP", 1);
  // 1 own boundary + 2 PAIR x 2 VIA = 5 rects.
  ASSERT_EQ(rects.size(), 5u);
  // The deepest instance: VIA at PAIR(0,200) + VIA(100,0).
  bool found = false;
  for (const Rect& r : rects)
    found |= r == Rect::from_xywh(100, 200, 40, 40);
  EXPECT_TRUE(found);
}

TEST(GdsiiSrefTest, FlattenAfterRoundTrip) {
  EXPECT_EQ(sorted(round_trip(hierarchical_lib()).flatten(1)),
            sorted(flatten_cell(hierarchical_lib(), "TOP", 1)));
}

TEST(GdsiiSrefTest, FlattenLeafIsItsOwnGeometry) {
  auto rects = flatten_cell(hierarchical_lib(), "VIA", 1);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], Rect::from_xywh(0, 0, 40, 40));
}

TEST(GdsiiSrefTest, UnknownCellThrows) {
  EXPECT_THROW(flatten_cell(hierarchical_lib(), "NOPE", 1),
               hsdl::CheckError);
}

TEST(GdsiiSrefTest, ReferenceCycleDetected) {
  GdsLibrary lib;
  GdsCell a;
  a.name = "A";
  a.refs.push_back({"B", {0, 0}});
  GdsCell b;
  b.name = "B";
  b.refs.push_back({"A", {10, 10}});
  lib.cells = {a, b};
  EXPECT_THROW(flatten_cell(lib, "A", 1), hsdl::CheckError);
}

TEST(GdsiiTest, TruncatedStreamThrows) {
  const std::string full = serialized(clip_library(demo_clip()));
  std::istringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_hier_gds(cut), CheckError);
}

TEST(GdsiiTest, EmptyStreamThrows) {
  std::istringstream is("");
  EXPECT_THROW(read_hier_gds(is), CheckError);
}

TEST(GdsiiTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/clip.gds";
  write_gds_file(path, clip_library(demo_clip()));
  EXPECT_EQ(read_hier_gds_file(path).flatten(1).size(),
            demo_clip().shapes.size());
}

TEST(GdsiiTest, UnknownRecordsSkipped) {
  // Inject a TEXT-ish record (type 0x0C) before ENDLIB (the last 4
  // bytes); the reader must skip it.
  std::string data = serialized(clip_library(demo_clip()));
  const std::string unknown = {0x00, 0x04, 0x0C, 0x00};
  data.insert(data.size() - 4, unknown);
  std::istringstream patched(data);
  EXPECT_NO_THROW(read_hier_gds(patched));
}

TEST(GdsiiSrefTest, ArefRoundTripsThroughWriteRead) {
  GdsLibrary lib = hierarchical_lib();
  lib.cells[2].refs.push_back({"VIA", {1000, 0}, 4, 3, 80, 60});
  const HierLayout loaded = round_trip(lib);
  const HierPlacement& ref = loaded.cells()[2].placements[2];
  EXPECT_EQ(ref.cols, 4);
  EXPECT_EQ(ref.rows, 3);
  EXPECT_EQ(ref.col_pitch, 80);
  EXPECT_EQ(ref.row_pitch, 60);
  EXPECT_EQ(ref.instances(), 12);
  // Flatten expands the repetition: 5 original + 12 array VIAs.
  const std::vector<Rect> rects = loaded.flatten(1);
  EXPECT_EQ(rects.size(), 17u);
  EXPECT_EQ(sorted(rects), sorted(flatten_cell(lib, "TOP", 1)));
  bool found = false;
  for (const Rect& r : rects)
    found |= r == Rect::from_xywh(1000 + 3 * 80, 2 * 60, 40, 40);
  EXPECT_TRUE(found);
}

TEST(GdsiiSrefTest, FlattenDepthGuarded) {
  // A 70-deep reference chain exceeds the hierarchy-depth ceiling.
  GdsLibrary lib;
  constexpr int kDepth = 70;
  for (int i = 0; i < kDepth; ++i) {
    GdsCell cell;
    cell.name = "C" + std::to_string(i);
    if (i + 1 < kDepth) cell.refs.push_back({"C" + std::to_string(i + 1),
                                             {0, 0}});
    lib.cells.push_back(cell);
  }
  lib.cells.back().boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells.back().layers.push_back(1);
  EXPECT_THROW(flatten_cell(lib, "C0", 1), hsdl::CheckError);
}

TEST(GdsiiSrefTest, FlattenInstanceBlowupGuarded) {
  GdsLibrary lib;
  GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 1, 1)));
  unit.layers.push_back(1);
  GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"UNIT", {0, 0}, 4096, 4097, 10, 10});
  lib.cells = {unit, top};
  EXPECT_THROW(flatten_cell(lib, "TOP", 1), hsdl::CheckError);
}

}  // namespace
}  // namespace hsdl::layout
