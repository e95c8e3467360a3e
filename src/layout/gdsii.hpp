// GDSII stream-format subset: the record table, the in-memory library
// model and its writer.
//
// GDSII is the interchange format the original benchmarks ship in. This
// implements the subset needed for single-layer mask data with cell
// hierarchy:
//   HEADER, BGNLIB, LIBNAME, UNITS, BGNSTR, STRNAME,
//   BOUNDARY / LAYER / DATATYPE / XY / ENDEL,
//   SREF / AREF / SNAME / COLROW, ENDSTR, ENDLIB
// Records are big-endian; UNITS uses GDSII's excess-64 base-16 8-byte
// reals (converters exposed for testing). Boundaries are rectilinear
// polygons. AREF arrays must be axis-aligned (no rotation/magnification —
// outside the supported subset).
//
// `GdsLibrary` is a write-side model: perfbench, the benches and the
// tests build inputs with it and serialize them through write_gds. The
// one reader is the streaming read_hier_gds in layout/gds_stream.hpp
// (DESIGN.md §16), which shares the record table below.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/polygon.hpp"

namespace hsdl::layout {

/// GDSII record types and data types of the supported subset — the one
/// table the writer and the reader share.
namespace gds {
enum Record : std::uint8_t {
  kHeader = 0x00,
  kBgnLib = 0x01,
  kLibName = 0x02,
  kUnits = 0x03,
  kEndLib = 0x04,
  kBgnStr = 0x05,
  kStrName = 0x06,
  kEndStr = 0x07,
  kBoundary = 0x08,
  kSref = 0x0A,
  kAref = 0x0B,
  kLayer = 0x0D,
  kDatatype = 0x0E,
  kXy = 0x10,
  kEndEl = 0x11,
  kSname = 0x12,
  kColRow = 0x13,
};
enum DataType : std::uint8_t {
  kNoData = 0x00,
  kInt16 = 0x02,
  kInt32 = 0x03,
  kReal8 = 0x05,
  kAscii = 0x06,
};
/// The database unit read_hier_gds requires: geometry is integer
/// nanometers.
inline constexpr double kDbUnitMeters = 1e-9;
}  // namespace gds

/// Structure reference: a translated placement of another cell. A plain
/// SREF is the cols == rows == 1 case; an AREF places a cols x rows
/// array stepped by col_pitch in x and row_pitch in y (axis-aligned
/// subset; the writer requires positive pitches on arrays).
struct GdsRef {
  std::string cell;
  geom::Point at;
  std::int32_t cols = 1;
  std::int32_t rows = 1;
  geom::Coord col_pitch = 0;  ///< nm step between array columns (x)
  geom::Coord row_pitch = 0;  ///< nm step between array rows (y)

  bool is_array() const { return cols > 1 || rows > 1; }
  /// Total placements this reference expands to.
  std::int64_t instances() const {
    return static_cast<std::int64_t>(cols) * rows;
  }
};

struct GdsCell {
  std::string name;
  std::vector<geom::Polygon> boundaries;
  std::vector<std::int16_t> layers;  ///< parallel to boundaries
  std::vector<GdsRef> refs;

  /// All boundaries on `layer`, decomposed into rectangles (refs are not
  /// resolved — see flatten_cell).
  std::vector<geom::Rect> rects_on_layer(std::int16_t layer) const;
};

struct GdsLibrary {
  std::string name = "HSDL";
  /// Database unit in meters. read_hier_gds accepts only
  /// gds::kDbUnitMeters (1 nm); other values exist to write test inputs.
  double db_unit_meters = gds::kDbUnitMeters;
  /// User unit in database units (GDSII UNITS first field).
  double user_unit = 1e-3;
  std::vector<GdsCell> cells;
};

/// Serializes a library. Boundaries must be rectilinear polygons; refs
/// with is_array() emit AREF records (SNAME + COLROW + 3-point XY).
/// Throws CheckError on what GDSII cannot hold: a record longer than
/// its 16-bit length field (a boundary of more than 8190 vertices) or a
/// coordinate, AREF far corner included, outside the int32 range.
void write_gds(std::ostream& os, const GdsLibrary& lib);
void write_gds_file(const std::string& path, const GdsLibrary& lib);

/// Recursively resolves structure references of `cell_name` (repetition
/// included), returning every boundary rectangle on `layer` in the
/// flattened (top-cell) coordinate frame — the oracle HierLayout's
/// flatten and query are tested against. Cell names resolve through a
/// name index built once per call; unknown cells, reference cycles,
/// absurd hierarchy depth and adversarial instance blow-ups
/// (> ~16.7M placements) are positioned errors, never unbounded
/// recursion.
std::vector<geom::Rect> flatten_cell(const GdsLibrary& lib,
                                     const std::string& cell_name,
                                     std::int16_t layer);

// -- GDSII 8-byte real conversion (exposed for tests) --
std::uint64_t to_gds_real(double value);
double from_gds_real(std::uint64_t bits);

}  // namespace hsdl::layout
