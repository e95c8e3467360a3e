// Streaming hierarchical GDSII reader (DESIGN.md §16) — the one GDSII
// decoder. Full chips are mostly repeated array instances that a flat
// in-memory model would expand, so the reader keeps them unexpanded:
//
//   * a forward-only tag/length record cursor over a std::istream. One
//     record buffer (at most the 16-bit length field's 65535 bytes) is
//     reused for every record, so peak reader memory is O(1) in the
//     file size; every diagnostic carries the absolute byte offset and
//     record index.
//   * HierLayout — cells with their rectangles plus SREF/AREF
//     placements kept *unexpanded* (repetition as cols/rows/pitch).
//     Each cell carries its subtree bounding box and a content hash
//     that identifies the cell's flattened geometry up to translation —
//     the key the scan-result cache (hotspot/scan_cache.hpp) reuses
//     scored windows under.
//   * window-query descent — HierLayout::query resolves only the
//     placements whose subtree boxes intersect the query window
//     (AREF index ranges are computed in O(1) from the pitch), so
//     extracting a scan band touches O(geometry under the band) memory
//     regardless of chip size.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "layout/gdsii.hpp"

namespace hsdl::layout {

/// One unexpanded placement: `cell` indexes HierLayout::cells().
/// Repetition is normalized (cols, rows >= 1; pitches >= 0, positive
/// when the corresponding count is > 1).
struct HierPlacement {
  std::uint32_t cell = 0;
  geom::Point at;
  std::int32_t cols = 1;
  std::int32_t rows = 1;
  geom::Coord col_pitch = 0;
  geom::Coord row_pitch = 0;

  std::int64_t instances() const {
    return static_cast<std::int64_t>(cols) * rows;
  }
  /// Origin of array element (i, j).
  geom::Point origin(std::int32_t i, std::int32_t j) const {
    return {at.x + i * col_pitch, at.y + j * row_pitch};
  }
};

struct HierCell {
  std::string name;
  std::vector<geom::Rect> shapes;    ///< local rectangles (cell frame)
  std::vector<std::int16_t> layers;  ///< parallel to shapes
  std::vector<HierPlacement> placements;
  /// Bounding box of the whole subtree (local shapes + every placement,
  /// repetition included) in this cell's frame. Empty for empty cells.
  geom::Rect bbox;
  /// Identifies the subtree's flattened geometry up to translation:
  /// equal hashes => congruent flattened content. Two cells that happen
  /// to contain identical geometry hash equal, which lets the scan
  /// cache share their windows.
  std::uint64_t content_hash = 0;
};

/// A GDSII hierarchy with references kept unexpanded. Immutable once
/// built by read_hier_gds; all query methods are const and thread-safe.
class HierLayout {
 public:
  const std::vector<HierCell>& cells() const { return cells_; }
  const HierCell& cell(std::size_t i) const { return cells_[i]; }
  /// Index of the top cell (the unique cell no placement references).
  std::size_t top() const { return top_; }
  /// Subtree bbox of the top cell — the scannable chip extent.
  const geom::Rect& extent() const { return cells_[top_].bbox; }
  /// Content fingerprint of the whole layout (top cell's hash mixed
  /// with the library name) — used to fence scan journals.
  std::uint64_t fingerprint() const;

  /// Appends every shape on `layer` that overlaps `window` — clipped to
  /// the window, in top-cell coordinates — to `out`. Lazy descent: only
  /// placements whose subtree bbox intersects the window are expanded,
  /// and only the intersecting index range of each array.
  void query(const geom::Rect& window, std::int16_t layer,
             std::vector<geom::Rect>& out) const;

  /// Fully flattened geometry of `layer` in top-cell coordinates — the
  /// test oracle and the bridge to the flat Layout model. Guarded by
  /// the same instance ceiling as flatten_cell.
  std::vector<geom::Rect> flatten(std::int16_t layer) const;

  /// Sum of instances() over all placements reachable from the top —
  /// the size a flat expansion would multiply geometry by.
  std::int64_t flat_instance_count() const;

  /// Layers present anywhere in the hierarchy, ascending.
  std::vector<std::int16_t> present_layers() const;

 private:
  friend HierLayout read_hier_gds(std::istream&);

  void query_cell(std::size_t cell_index, geom::Point offset,
                  const geom::Rect& window, std::int16_t layer,
                  std::vector<geom::Rect>& out, std::size_t depth) const;
  /// Resolves `raw_refs` (per-cell, by cell name) into placements,
  /// orients the DAG (cycle check), computes subtree bboxes and content
  /// hashes, picks the top cell. Throws CheckError on cycles, unknown
  /// or duplicate names, or a missing unique top.
  void finalize(const std::string& library_name,
                std::vector<std::vector<GdsRef>>&& raw_refs);

  std::vector<HierCell> cells_;
  std::size_t top_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Streams a GDSII file into a HierLayout without expanding references
/// or buffering the file: records are framed directly off the istream
/// through one reused record buffer. Unknown record types (TEXT, PATH,
/// properties, ...) are skipped; a database unit other than 1 nm, a
/// structural error or a truncation throws IoError/CheckError with the
/// byte offset and record index.
HierLayout read_hier_gds(std::istream& is);
HierLayout read_hier_gds_file(const std::string& path);

/// Builds the HierLayout of an in-memory library (e.g. generator-built
/// hierarchies in tests) by writing it with write_gds and reading it
/// back, so it passes exactly the checks a file does.
HierLayout hier_from_library(const GdsLibrary& lib);

}  // namespace hsdl::layout
