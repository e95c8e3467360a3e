#include "layout/gdsii.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "common/check.hpp"

namespace hsdl::layout {

using namespace gds;

namespace {

void put_u16(std::string& buf, std::uint16_t v) {
  buf.push_back(static_cast<char>(v >> 8));
  buf.push_back(static_cast<char>(v & 0xFF));
}

void put_u32(std::string& buf, std::uint32_t v) {
  put_u16(buf, static_cast<std::uint16_t>(v >> 16));
  put_u16(buf, static_cast<std::uint16_t>(v & 0xFFFF));
}

void put_u64(std::string& buf, std::uint64_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v >> 32));
  put_u32(buf, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
}

void emit(std::ostream& os, std::uint8_t rec, std::uint8_t dtype,
          const std::string& payload) {
  // Length includes the 4-byte header; GDSII pads odd payloads.
  std::string body = payload;
  if (body.size() % 2 == 1) body.push_back('\0');
  HSDL_CHECK_MSG(body.size() + 4 <= 0xFFFF,
                 "GDSII: record type " << static_cast<int>(rec) << " of "
                                       << body.size() + 4
                                       << " bytes overflows the 16-bit "
                                          "record length (a boundary of "
                                          "more than 8190 vertices?)");
  const auto len = static_cast<std::uint16_t>(body.size() + 4);
  std::string header;
  put_u16(header, len);
  header.push_back(static_cast<char>(rec));
  header.push_back(static_cast<char>(dtype));
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
}

void emit_i16(std::ostream& os, std::uint8_t rec, std::int16_t v) {
  std::string p;
  put_u16(p, static_cast<std::uint16_t>(v));
  emit(os, rec, kInt16, p);
}

void emit_ascii(std::ostream& os, std::uint8_t rec, const std::string& s) {
  emit(os, rec, kAscii, s);
}

void put_point(std::string& xy, geom::Point p) {
  constexpr geom::Coord lo = std::numeric_limits<std::int32_t>::min();
  constexpr geom::Coord hi = std::numeric_limits<std::int32_t>::max();
  HSDL_CHECK_MSG(p.x >= lo && p.x <= hi && p.y >= lo && p.y <= hi,
                 "GDSII: point (" << p.x << ", " << p.y
                                  << ") is outside the int32 coordinate "
                                     "range");
  put_u32(xy, static_cast<std::uint32_t>(static_cast<std::int32_t>(p.x)));
  put_u32(xy, static_cast<std::uint32_t>(static_cast<std::int32_t>(p.y)));
}

/// GDSII timestamps: 6 int16 fields (year, month, day, hour, min, sec),
/// twice (modification + access). Fixed epoch keeps output deterministic.
void emit_timestamps(std::ostream& os, std::uint8_t rec) {
  std::string p;
  for (int rep = 0; rep < 2; ++rep) {
    const std::int16_t stamp[6] = {2017, 6, 18, 0, 0, 0};  // DAC'17
    for (std::int16_t v : stamp)
      put_u16(p, static_cast<std::uint16_t>(v));
  }
  emit(os, rec, kInt16, p);
}

}  // namespace

std::uint64_t to_gds_real(double value) {
  // Excess-64 base-16: bit 63 sign, bits 62-56 exponent (power of 16,
  // biased by 64), bits 55-0 mantissa with the value = mantissa * 16^(e-64),
  // mantissa normalized to [1/16, 1).
  if (value == 0.0) return 0;
  std::uint64_t sign = 0;
  if (value < 0) {
    sign = 1ULL << 63;
    value = -value;
  }
  int exponent = 64;
  while (value >= 1.0) {
    value /= 16.0;
    ++exponent;
  }
  while (value < 1.0 / 16.0) {
    value *= 16.0;
    --exponent;
  }
  HSDL_CHECK_MSG(exponent >= 0 && exponent < 128,
                 "value out of GDSII real range");
  const auto mantissa =
      static_cast<std::uint64_t>(std::ldexp(value, 56));  // value * 2^56
  return sign | (static_cast<std::uint64_t>(exponent) << 56) |
         (mantissa & ((1ULL << 56) - 1));
}

double from_gds_real(std::uint64_t bits) {
  if (bits == 0) return 0.0;
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
  const double mantissa =
      std::ldexp(static_cast<double>(bits & ((1ULL << 56) - 1)), -56);
  const double value = mantissa * std::pow(16.0, exponent);
  return negative ? -value : value;
}

std::vector<geom::Rect> GdsCell::rects_on_layer(std::int16_t layer) const {
  std::vector<geom::Rect> out;
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    if (layers[i] != layer) continue;
    for (const geom::Rect& r : boundaries[i].decompose()) out.push_back(r);
  }
  return out;
}

void write_gds(std::ostream& os, const GdsLibrary& lib) {
  emit_i16(os, kHeader, 600);  // stream version 6
  emit_timestamps(os, kBgnLib);
  emit_ascii(os, kLibName, lib.name);
  {
    std::string p;
    put_u64(p, to_gds_real(lib.user_unit));
    put_u64(p, to_gds_real(lib.db_unit_meters));
    emit(os, kUnits, kReal8, p);
  }
  for (const GdsCell& cell : lib.cells) {
    HSDL_CHECK(cell.boundaries.size() == cell.layers.size());
    emit_timestamps(os, kBgnStr);
    emit_ascii(os, kStrName, cell.name);
    for (std::size_t i = 0; i < cell.boundaries.size(); ++i) {
      emit(os, kBoundary, kNoData, "");
      emit_i16(os, kLayer, cell.layers[i]);
      emit_i16(os, kDatatype, 0);
      std::string xy;
      const auto& ring = cell.boundaries[i].ring();
      HSDL_CHECK_MSG(!ring.empty(), "empty boundary");
      for (std::size_t v = 0; v <= ring.size(); ++v)
        put_point(xy, ring[v % ring.size()]);  // closed ring
      emit(os, kXy, kInt32, xy);
      emit(os, kEndEl, kNoData, "");
    }
    for (const GdsRef& ref : cell.refs) {
      HSDL_CHECK_MSG(ref.cols >= 1 && ref.rows >= 1,
                     "GDSII: reference to '"
                         << ref.cell << "' has non-positive repetition "
                         << ref.cols << "x" << ref.rows);
      if (ref.is_array()) {
        HSDL_CHECK_MSG(ref.cols <= 32767 && ref.rows <= 32767,
                       "GDSII: AREF repetition exceeds the 16-bit COLROW "
                       "range");
        HSDL_CHECK_MSG((ref.cols == 1 || ref.col_pitch > 0) &&
                           (ref.rows == 1 || ref.row_pitch > 0),
                       "GDSII: AREF of '" << ref.cell
                                          << "' needs positive pitches");
        emit(os, kAref, kNoData, "");
        emit_ascii(os, kSname, ref.cell);
        std::string colrow;
        put_u16(colrow, static_cast<std::uint16_t>(ref.cols));
        put_u16(colrow, static_cast<std::uint16_t>(ref.rows));
        emit(os, kColRow, kInt16, colrow);
        // 3-point XY: origin, origin + cols*col_pitch along x,
        // origin + rows*row_pitch along y (axis-aligned subset).
        std::string xy;
        put_point(xy, ref.at);
        put_point(xy, {ref.at.x + ref.cols * ref.col_pitch, ref.at.y});
        put_point(xy, {ref.at.x, ref.at.y + ref.rows * ref.row_pitch});
        emit(os, kXy, kInt32, xy);
      } else {
        emit(os, kSref, kNoData, "");
        emit_ascii(os, kSname, ref.cell);
        std::string xy;
        put_point(xy, ref.at);
        emit(os, kXy, kInt32, xy);
      }
      emit(os, kEndEl, kNoData, "");
    }
    emit(os, kEndStr, kNoData, "");
  }
  emit(os, kEndLib, kNoData, "");
  HSDL_CHECK_MSG(os.good(), "GDSII write failed");
}

namespace {

constexpr std::size_t kMaxFlattenDepth = 64;
/// Expanded-placement ceiling: adversarial files can nest AREFs so that
/// the instance count explodes combinatorially; flattening stops with a
/// diagnostic instead of consuming all memory.
constexpr std::int64_t kMaxFlattenInstances = 1 << 24;

struct Flattener {
  const GdsLibrary& lib;
  std::int16_t layer;
  /// Name -> cell index, built once (the old implementation re-ran a
  /// linear search on every recursive visit).
  std::unordered_map<std::string_view, std::size_t> index;
  std::int64_t instances = 0;
  std::vector<geom::Rect> out;

  explicit Flattener(const GdsLibrary& l, std::int16_t lay)
      : lib(l), layer(lay) {
    index.reserve(lib.cells.size());
    for (std::size_t i = 0; i < lib.cells.size(); ++i)
      index.emplace(lib.cells[i].name, i);
  }

  void visit(const std::string& name, geom::Point offset, std::size_t depth) {
    HSDL_CHECK_MSG(depth < kMaxFlattenDepth,
                   "GDSII: reference cycle or absurd hierarchy depth at "
                   "cell '" << name << "'");
    const auto it = index.find(name);
    HSDL_CHECK_MSG(it != index.end(), "GDSII: unknown cell '" << name << "'");
    const GdsCell& cell = lib.cells[it->second];
    for (const geom::Rect& r : cell.rects_on_layer(layer))
      out.push_back(r.shifted(offset));
    for (const GdsRef& ref : cell.refs) {
      HSDL_CHECK_MSG(ref.cols >= 1 && ref.rows >= 1,
                     "GDSII: non-positive AREF repetition in cell '"
                         << cell.name << "'");
      instances += ref.instances();
      HSDL_CHECK_MSG(instances <= kMaxFlattenInstances,
                     "GDSII: flattening cell '"
                         << name << "' expands past " << kMaxFlattenInstances
                         << " placements (adversarial repetition?)");
      for (std::int32_t j = 0; j < ref.rows; ++j)
        for (std::int32_t i = 0; i < ref.cols; ++i)
          visit(ref.cell, offset + ref.at +
                              geom::Point{i * ref.col_pitch,
                                          j * ref.row_pitch},
                depth + 1);
    }
  }
};

}  // namespace

void write_gds_file(const std::string& path, const GdsLibrary& lib) {
  std::ofstream os(path, std::ios::binary);
  HSDL_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  write_gds(os, lib);
}

std::vector<geom::Rect> flatten_cell(const GdsLibrary& lib,
                                     const std::string& cell_name,
                                     std::int16_t layer) {
  Flattener flattener(lib, layer);
  flattener.visit(cell_name, {0, 0}, 0);
  return std::move(flattener.out);
}

}  // namespace hsdl::layout
