#include "layout/gds_stream.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/io.hpp"
#include "geom/polygon.hpp"

namespace hsdl::layout {

using namespace gds;

namespace {

constexpr std::size_t kMaxHierDepth = 64;
constexpr std::int64_t kMaxFlattenInstances = 1 << 24;

/// FNV-1a 64 accumulator for cell content hashes. Not cryptographic:
/// the scan cache assumes non-adversarial inputs (a deliberate hash
/// collision between two cells could alias their cached scores).
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void mix_coord(geom::Coord c) { mix(static_cast<std::uint64_t>(c)); }
};

/// Forward-only record cursor over a std::istream: 4-byte tag/len
/// header, payload into one reused buffer (the 16-bit length field
/// bounds it). Never reads ahead of the current record, never buffers
/// the file.
class StreamRecordReader {
 public:
  explicit StreamRecordReader(std::istream& is) : is_(is) {
    buf_.reserve(0xFFFF);
  }

  struct Record {
    std::uint8_t type = 0;
    std::uint8_t dtype = 0;
    std::string_view payload;
  };

  /// Frames the next record; false at clean end-of-stream.
  bool next(Record& rec) {
    record_start_ = offset_;
    unsigned char hdr[4];
    is_.read(reinterpret_cast<char*>(hdr), 4);
    const std::streamsize got = is_.gcount();
    if (got == 0) return false;
    if (got < 4) fail_at(record_start_, "truncated record header");
    offset_ += 4;
    const std::size_t len =
        (static_cast<std::size_t>(hdr[0]) << 8) | hdr[1];
    rec.type = hdr[2];
    rec.dtype = hdr[3];
    if (len < 4) fail_at(record_start_, "record length below header size");
    buf_.resize(len - 4);
    if (len > 4) {
      is_.read(buf_.data(), static_cast<std::streamsize>(len - 4));
      if (static_cast<std::size_t>(is_.gcount()) < len - 4)
        fail_at(record_start_, "truncated record payload");
      offset_ += len - 4;
    }
    rec.payload = std::string_view(buf_.data(), buf_.size());
    ++index_;
    return true;
  }

  /// Trailing bytes after ENDLIB must be NUL tape padding only.
  void expect_only_padding() {
    char c;
    while (is_.read(&c, 1), is_.gcount() == 1) {
      if (c != '\0') fail("non-padding trailing data after ENDLIB");
      ++offset_;
    }
  }

  std::uint64_t offset() const { return offset_; }

  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(offset_, msg);
  }

 private:
  [[noreturn]] void fail_at(std::uint64_t at, const std::string& msg) const {
    throw io::IoError(msg + " (record #" + std::to_string(index_) + ")", at,
                      "GDSII");
  }

  std::istream& is_;
  std::string buf_;
  std::uint64_t offset_ = 0;
  std::uint64_t record_start_ = 0;
  std::size_t index_ = 0;
};

std::string trim_nul(std::string_view s) {
  while (!s.empty() && s.back() == '\0') s.remove_suffix(1);
  return std::string(s);
}

/// Decodes a boundary XY payload into a ring via the shared
/// bounds-checked big-endian codecs.
std::vector<geom::Point> decode_ring(std::string_view payload,
                                     StreamRecordReader& records) {
  if (payload.size() % 8 != 0) records.fail("odd XY payload");
  io::ByteReader r(payload, "GDSII");
  std::vector<geom::Point> ring;
  ring.reserve(payload.size() / 8);
  while (!r.at_end()) {
    const geom::Coord x = r.i32_be();
    const geom::Coord y = r.i32_be();
    ring.push_back({x, y});
  }
  // GDSII repeats the first vertex at the end.
  if (ring.size() >= 2 && ring.front() == ring.back()) ring.pop_back();
  return ring;
}

}  // namespace

std::uint64_t HierLayout::fingerprint() const { return fingerprint_; }

void HierLayout::finalize(const std::string& library_name,
                          std::vector<std::vector<GdsRef>>&& raw_refs) {
  HSDL_CHECK_MSG(!cells_.empty(), "GDSII: hierarchy has no cells");
  HSDL_CHECK(raw_refs.size() == cells_.size());

  // Name index (duplicates and anonymous cells are structural errors).
  std::unordered_map<std::string_view, std::size_t> index;
  index.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    HSDL_CHECK_MSG(!cells_[i].name.empty(),
                   "GDSII: cell #" << i << " has no STRNAME");
    const bool fresh = index.emplace(cells_[i].name, i).second;
    HSDL_CHECK_MSG(fresh, "GDSII: duplicate cell name '" << cells_[i].name
                                                         << "'");
  }

  // Resolve references; normalize repetition to non-negative pitches.
  std::vector<bool> referenced(cells_.size(), false);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].placements.clear();
    cells_[i].placements.reserve(raw_refs[i].size());
    for (GdsRef ref : raw_refs[i]) {
      const auto it = index.find(ref.cell);
      HSDL_CHECK_MSG(it != index.end(), "GDSII: cell '"
                                            << cells_[i].name
                                            << "' references unknown cell '"
                                            << ref.cell << "'");
      HSDL_CHECK_MSG(ref.cols >= 1 && ref.rows >= 1,
                     "GDSII: non-positive repetition referencing '"
                         << ref.cell << "'");
      HSDL_CHECK_MSG((ref.cols == 1 || ref.col_pitch != 0) &&
                         (ref.rows == 1 || ref.row_pitch != 0),
                     "GDSII: zero-pitch repetition referencing '"
                         << ref.cell << "'");
      if (ref.col_pitch < 0) {
        ref.at.x += (ref.cols - 1) * ref.col_pitch;
        ref.col_pitch = -ref.col_pitch;
      }
      if (ref.row_pitch < 0) {
        ref.at.y += (ref.rows - 1) * ref.row_pitch;
        ref.row_pitch = -ref.row_pitch;
      }
      HierPlacement p;
      p.cell = static_cast<std::uint32_t>(it->second);
      p.at = ref.at;
      p.cols = ref.cols;
      p.rows = ref.rows;
      p.col_pitch = ref.col_pitch;
      p.row_pitch = ref.row_pitch;
      cells_[i].placements.push_back(p);
      referenced[it->second] = true;
    }
  }

  // Post-order over the reference DAG: subtree bbox + content hash for
  // every cell, with explicit cycle detection (0 = new, 1 = on the
  // current path, 2 = done) — no recursion, so adversarially deep
  // chains cannot blow the native stack.
  std::vector<int> state(cells_.size(), 0);
  for (std::size_t root = 0; root < cells_.size(); ++root) {
    if (state[root] == 2) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack;  // cell, child
    stack.emplace_back(root, 0);
    state[root] = 1;
    while (!stack.empty()) {
      auto& [c, next_child] = stack.back();
      HierCell& cell = cells_[c];
      if (next_child < cell.placements.size()) {
        const std::size_t child = cell.placements[next_child++].cell;
        HSDL_CHECK_MSG(state[child] != 1,
                       "GDSII: reference cycle involving cell '"
                           << cells_[child].name << "'");
        if (state[child] == 0) {
          state[child] = 1;
          stack.emplace_back(child, 0);
        }
        continue;
      }
      // All children done: fold this cell.
      geom::Rect bbox;
      Fnv64 hash;
      hash.mix(0x5348);  // shape-section tag
      HSDL_CHECK(cell.shapes.size() == cell.layers.size());
      for (std::size_t s = 0; s < cell.shapes.size(); ++s) {
        bbox = bbox.bbox_union(cell.shapes[s]);
        hash.mix(static_cast<std::uint64_t>(
            static_cast<std::uint16_t>(cell.layers[s])));
        hash.mix_coord(cell.shapes[s].lo.x);
        hash.mix_coord(cell.shapes[s].lo.y);
        hash.mix_coord(cell.shapes[s].hi.x);
        hash.mix_coord(cell.shapes[s].hi.y);
      }
      hash.mix(0x5245);  // placement-section tag
      for (const HierPlacement& p : cell.placements) {
        const HierCell& child = cells_[p.cell];
        if (!child.bbox.empty()) {
          geom::Rect pb = child.bbox.shifted(p.at);
          pb.hi.x += (p.cols - 1) * p.col_pitch;
          pb.hi.y += (p.rows - 1) * p.row_pitch;
          bbox = bbox.bbox_union(pb);
        }
        hash.mix(child.content_hash);
        hash.mix_coord(p.at.x);
        hash.mix_coord(p.at.y);
        hash.mix(static_cast<std::uint64_t>(p.cols));
        hash.mix(static_cast<std::uint64_t>(p.rows));
        hash.mix_coord(p.col_pitch);
        hash.mix_coord(p.row_pitch);
      }
      cell.bbox = bbox;
      cell.content_hash = hash.h;
      state[c] = 2;
      stack.pop_back();
    }
  }

  // Top cell: the unique cell no placement references.
  std::size_t top = cells_.size();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (referenced[i]) continue;
    HSDL_CHECK_MSG(top == cells_.size(),
                   "GDSII: no unique top cell (both '"
                       << cells_[std::min(top, cells_.size() - 1)].name
                       << "' and '" << cells_[i].name
                       << "' are unreferenced)");
    top = i;
  }
  HSDL_CHECK_MSG(top < cells_.size(),
                 "GDSII: no top cell (every cell is referenced — cycle)");
  top_ = top;
  HSDL_CHECK_MSG(!cells_[top_].bbox.empty(),
                 "GDSII: top cell '" << cells_[top_].name
                                     << "' has no geometry to scan");

  Fnv64 fp;
  for (char ch : library_name) fp.mix(static_cast<unsigned char>(ch));
  fp.mix(cells_[top_].content_hash);
  fp.mix_coord(cells_[top_].bbox.lo.x);
  fp.mix_coord(cells_[top_].bbox.lo.y);
  fingerprint_ = fp.h;
}

void HierLayout::query(const geom::Rect& window, std::int16_t layer,
                       std::vector<geom::Rect>& out) const {
  HSDL_CHECK(!window.empty());
  query_cell(top_, {0, 0}, window, layer, out, 0);
}

void HierLayout::query_cell(std::size_t cell_index, geom::Point offset,
                            const geom::Rect& window, std::int16_t layer,
                            std::vector<geom::Rect>& out,
                            std::size_t depth) const {
  HSDL_CHECK_MSG(depth < kMaxHierDepth, "GDSII: hierarchy deeper than "
                                            << kMaxHierDepth);
  const HierCell& cell = cells_[cell_index];
  for (std::size_t i = 0; i < cell.shapes.size(); ++i) {
    if (cell.layers[i] != layer) continue;
    const geom::Rect cut = cell.shapes[i].shifted(offset).intersect(window);
    if (!cut.empty()) out.push_back(cut);
  }
  for (const HierPlacement& p : cell.placements) {
    const geom::Rect& cb = cells_[p.cell].bbox;
    if (cb.empty()) continue;
    const geom::Point base = offset + p.at;
    // Array index ranges whose instance bbox interior intersects the
    // window: i*pitch must satisfy
    //   window.lo < cb.hi + base + i*pitch  and  cb.lo + base + i*pitch
    //   < window.hi   (per axis, strict — matching Rect::overlaps).
    std::int32_t i_lo = 0, i_hi = p.cols - 1;
    if (p.cols > 1) {
      i_lo = static_cast<std::int32_t>(std::max<geom::Coord>(
          0, geom::floor_div(window.lo.x - base.x - cb.hi.x, p.col_pitch) +
                 1));
      i_hi = static_cast<std::int32_t>(std::min<geom::Coord>(
          p.cols - 1,
          geom::floor_div(window.hi.x - base.x - cb.lo.x - 1, p.col_pitch)));
    } else if (base.x + cb.lo.x >= window.hi.x ||
               base.x + cb.hi.x <= window.lo.x) {
      continue;
    }
    std::int32_t j_lo = 0, j_hi = p.rows - 1;
    if (p.rows > 1) {
      j_lo = static_cast<std::int32_t>(std::max<geom::Coord>(
          0, geom::floor_div(window.lo.y - base.y - cb.hi.y, p.row_pitch) +
                 1));
      j_hi = static_cast<std::int32_t>(std::min<geom::Coord>(
          p.rows - 1,
          geom::floor_div(window.hi.y - base.y - cb.lo.y - 1, p.row_pitch)));
    } else if (base.y + cb.lo.y >= window.hi.y ||
               base.y + cb.hi.y <= window.lo.y) {
      continue;
    }
    if (i_lo > i_hi || j_lo > j_hi) continue;
    for (std::int32_t j = j_lo; j <= j_hi; ++j)
      for (std::int32_t i = i_lo; i <= i_hi; ++i)
        query_cell(p.cell, p.origin(i, j) + offset, window, layer, out,
                   depth + 1);
  }
}

namespace {

void flatten_rec(const std::vector<HierCell>& cells, std::size_t cell_index,
                 geom::Point offset, std::int16_t layer,
                 std::vector<geom::Rect>& out, std::int64_t& instances,
                 std::size_t depth) {
  HSDL_CHECK_MSG(depth < kMaxHierDepth, "GDSII: hierarchy deeper than "
                                            << kMaxHierDepth);
  const HierCell& cell = cells[cell_index];
  for (std::size_t i = 0; i < cell.shapes.size(); ++i)
    if (cell.layers[i] == layer)
      out.push_back(cell.shapes[i].shifted(offset));
  for (const HierPlacement& p : cell.placements) {
    instances += p.instances();
    HSDL_CHECK_MSG(instances <= kMaxFlattenInstances,
                   "GDSII: flattening '" << cell.name << "' expands past "
                                         << kMaxFlattenInstances
                                         << " placements");
    for (std::int32_t j = 0; j < p.rows; ++j)
      for (std::int32_t i = 0; i < p.cols; ++i)
        flatten_rec(cells, p.cell, p.origin(i, j) + offset, layer, out,
                    instances, depth + 1);
  }
}

}  // namespace

std::vector<geom::Rect> HierLayout::flatten(std::int16_t layer) const {
  std::vector<geom::Rect> out;
  std::int64_t instances = 0;
  flatten_rec(cells_, top_, {0, 0}, layer, out, instances, 0);
  return out;
}

std::int64_t HierLayout::flat_instance_count() const {
  // Per-cell memoized: instances in the subtree below a cell, counting
  // each placement element once. Saturates instead of overflowing —
  // the count is informational (bench reporting).
  std::vector<double> memo(cells_.size(), -1.0);
  // Cells were finalized in post-order-compatible state; recompute with
  // an explicit stack to stay recursion-free.
  std::vector<std::size_t> order;
  order.reserve(cells_.size());
  {
    std::vector<std::pair<std::size_t, std::size_t>> stack{{top_, 0}};
    std::vector<bool> seen(cells_.size(), false);
    seen[top_] = true;
    while (!stack.empty()) {
      auto& [c, next] = stack.back();
      if (next < cells_[c].placements.size()) {
        const std::size_t child = cells_[c].placements[next++].cell;
        if (!seen[child]) {
          seen[child] = true;
          stack.emplace_back(child, 0);
        }
        continue;
      }
      order.push_back(c);
      stack.pop_back();
    }
  }
  for (std::size_t c : order) {
    double below = 0.0;
    for (const HierPlacement& p : cells_[c].placements)
      below += static_cast<double>(p.instances()) *
               (1.0 + std::max(0.0, memo[p.cell]));
    memo[c] = below;
  }
  const double total = memo[top_];
  const double cap =
      static_cast<double>(std::numeric_limits<std::int64_t>::max() / 2);
  return static_cast<std::int64_t>(std::min(total, cap));
}

std::vector<std::int16_t> HierLayout::present_layers() const {
  std::set<std::int16_t> layers;
  for (const HierCell& cell : cells_)
    layers.insert(cell.layers.begin(), cell.layers.end());
  return {layers.begin(), layers.end()};
}

HierLayout read_hier_gds(std::istream& is) {
  StreamRecordReader records(is);
  HierLayout hier;
  std::vector<std::vector<GdsRef>> raw_refs;
  std::string lib_name = "HSDL";

  StreamRecordReader::Record rec;
  bool saw_header = false, saw_units = false;
  bool in_struct = false, in_element = false;
  bool element_is_boundary = false;
  bool element_is_ref = false;
  bool element_is_aref = false;
  bool have_colrow = false;
  std::int16_t current_layer = 0;
  std::vector<geom::Point> current_ring;
  std::string aref_xy;
  GdsRef current_ref;

  const auto payload_i16 = [&](std::string_view p) {
    io::ByteReader r(p, "GDSII");
    return r.i16_be();
  };

  while (records.next(rec)) {
    switch (rec.type) {
      case kHeader:
        saw_header = true;
        break;
      case kLibName:
        lib_name = trim_nul(rec.payload);
        break;
      case kUnits: {
        // Geometry is consumed as integer nanometers, so the database
        // unit (the second real) must be 1 nm; the user unit only
        // affects display and is ignored.
        if (rec.payload.size() < 16) records.fail("short UNITS payload");
        io::ByteReader r(rec.payload.substr(8), "GDSII");
        const double db_unit = from_gds_real(r.u64_be());
        if (!(std::abs(db_unit / kDbUnitMeters - 1.0) <= 1e-9)) {
          std::ostringstream msg;
          msg << "database unit " << db_unit
              << " m is not 1 nm (unsupported)";
          records.fail(msg.str());
        }
        saw_units = true;
        break;
      }
      case kBgnLib:
      case kDatatype:
        break;  // timestamps / datatype numbers carry no geometry
      case kBgnStr:
        if (in_struct) records.fail("nested BGNSTR");
        if (!saw_units) records.fail("BGNSTR before UNITS");
        hier.cells_.emplace_back();
        raw_refs.emplace_back();
        in_struct = true;
        break;
      case kStrName:
        if (!in_struct) records.fail("STRNAME outside structure");
        hier.cells_.back().name = trim_nul(rec.payload);
        break;
      case kEndStr:
        if (!in_struct || in_element) records.fail("unbalanced ENDSTR");
        in_struct = false;
        break;
      case kBoundary:
        if (!in_struct || in_element)
          records.fail("BOUNDARY outside structure");
        in_element = true;
        element_is_boundary = true;
        current_layer = 0;
        current_ring.clear();
        break;
      case kSref:
      case kAref:
        if (!in_struct || in_element)
          records.fail(rec.type == kAref ? "AREF outside structure"
                                         : "SREF outside structure");
        in_element = true;
        element_is_ref = true;
        element_is_aref = rec.type == kAref;
        have_colrow = false;
        aref_xy.clear();
        current_ref = GdsRef{};
        break;
      case kSname:
        if (in_element && element_is_ref)
          current_ref.cell = trim_nul(rec.payload);
        break;
      case kColRow:
        if (in_element && element_is_aref) {
          if (rec.payload.size() < 4) records.fail("short COLROW payload");
          io::ByteReader r(rec.payload, "GDSII");
          current_ref.cols = r.i16_be();
          current_ref.rows = r.i16_be();
          if (current_ref.cols < 1 || current_ref.rows < 1)
            records.fail("non-positive COLROW repetition");
          have_colrow = true;
        }
        break;
      case kLayer:
        if (in_element) current_layer = payload_i16(rec.payload);
        break;
      case kXy:
        if (in_element && element_is_ref) {
          if (element_is_aref) {
            aref_xy.assign(rec.payload);
          } else {
            if (rec.payload.size() < 8) records.fail("SREF without XY");
            io::ByteReader r(rec.payload, "GDSII");
            current_ref.at.x = r.i32_be();
            current_ref.at.y = r.i32_be();
          }
        }
        if (in_element && element_is_boundary)
          current_ring = decode_ring(rec.payload, records);
        break;
      case kEndEl:
        if (in_element && element_is_ref) {
          if (current_ref.cell.empty()) records.fail("SREF without SNAME");
          if (element_is_aref) {
            if (!have_colrow) records.fail("AREF without COLROW");
            if (aref_xy.size() != 24)
              records.fail("AREF XY must hold exactly 3 points");
            io::ByteReader r(aref_xy, "GDSII");
            const geom::Point origin{r.i32_be(), r.i32_be()};
            const geom::Point col_ref{r.i32_be(), r.i32_be()};
            const geom::Point row_ref{r.i32_be(), r.i32_be()};
            if (col_ref.y != origin.y || row_ref.x != origin.x)
              records.fail("rotated or sheared AREF (unsupported subset)");
            const geom::Coord col_span = col_ref.x - origin.x;
            const geom::Coord row_span = row_ref.y - origin.y;
            if (col_span % current_ref.cols != 0 ||
                row_span % current_ref.rows != 0)
              records.fail("AREF span not divisible by its COLROW counts");
            current_ref.at = origin;
            current_ref.col_pitch = col_span / current_ref.cols;
            current_ref.row_pitch = row_span / current_ref.rows;
            if ((current_ref.cols > 1 && current_ref.col_pitch == 0) ||
                (current_ref.rows > 1 && current_ref.row_pitch == 0))
              records.fail("zero-pitch AREF repetition");
          }
          raw_refs.back().push_back(current_ref);
        }
        if (in_element && element_is_boundary) {
          if (!geom::is_rectilinear_ring(current_ring))
            records.fail("non-rectilinear boundary (unsupported subset)");
          HierCell& cell = hier.cells_.back();
          for (const geom::Rect& r : geom::Polygon(current_ring).decompose()) {
            cell.shapes.push_back(r);
            cell.layers.push_back(current_layer);
          }
        }
        in_element = false;
        element_is_boundary = false;
        element_is_ref = false;
        element_is_aref = false;
        break;
      case kEndLib:
        if (!saw_header) records.fail("ENDLIB before HEADER");
        if (in_struct) records.fail("ENDLIB inside structure");
        records.expect_only_padding();
        hier.finalize(lib_name, std::move(raw_refs));
        return hier;
      default:
        break;  // skip unsupported records (TEXT, PATH, properties, ...)
    }
  }
  records.fail("stream ended without ENDLIB");
}

HierLayout read_hier_gds_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  HSDL_CHECK_MSG(is.good(), "cannot open '" << path << "' for reading");
  return read_hier_gds(is);
}

HierLayout hier_from_library(const GdsLibrary& lib) {
  std::stringstream ss;
  write_gds(ss, lib);
  return read_hier_gds(ss);
}

}  // namespace hsdl::layout
