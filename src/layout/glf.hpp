// GLF — a plain-text "geometry list format" for labeled clip sets.
//
// GDSII streams are overkill for fixed-window clip exchange; hotspot
// benchmark suites are commonly shipped as per-clip shape lists.
// Current (hardened) container, always written on output:
//
//   GLF 2 crc32=<8 hex> bytes=<N> clips=<M>
//   CLIP <x> <y> <w> <h> <label>     # label: hotspot | non-hotspot | none
//   RECT <x> <y> <w> <h>             # repeated, absolute nm coordinates
//   ...
//   ENDCLIP
//   ...                              # more CLIP blocks
//
// The header line declares the CRC-32, byte count and clip count of the
// body that follows, so bit flips and truncations are rejected with a
// positioned error instead of silently loading damaged geometry; so is
// any other header, including the unchecksummed "GLF 1". Within the
// body, lines starting with '#' and blank lines are ignored. File writes
// are atomic (write temp + rename).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "layout/dataset.hpp"

namespace hsdl::layout {

/// Serializes a clip set; labels kUnknown are written as "none".
void write_glf(std::ostream& os, const std::vector<LabeledClip>& clips);
void write_glf_file(const std::string& path,
                    const std::vector<LabeledClip>& clips);

/// Parses a GLF 2 stream. Throws hsdl::CheckError with a line number on
/// a malformed body and hsdl::io::IoError with a byte offset on a
/// foreign header or container damage (checksum or byte-count mismatch).
std::vector<LabeledClip> read_glf(std::istream& is);
std::vector<LabeledClip> read_glf_file(const std::string& path);

}  // namespace hsdl::layout
