#include "layout/glf.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/io.hpp"
#include "common/string_util.hpp"

namespace hsdl::layout {
namespace {

/// Full-match signed integer parse. std::stoll would accept trailing
/// garbage ("12x" -> 12) and throw bare std::invalid_argument /
/// std::out_of_range on damage; this keeps every malformed number inside
/// the positioned CheckError taxonomy.
geom::Coord parse_coord(const std::string& s, std::size_t lineno) {
  geom::Coord v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  HSDL_CHECK_MSG(ec == std::errc{} && ptr == s.data() + s.size(),
                 "GLF line " << lineno << ": bad integer '" << s << "'");
  return v;
}

std::uint64_t parse_u64_field(std::string_view token, std::string_view key,
                              const char* what) {
  HSDL_CHECK_MSG(token.size() > key.size() &&
                     token.substr(0, key.size()) == key,
                 "GLF 2 header: malformed " << what << " field '" << token
                                            << "'");
  const std::string_view digits = token.substr(key.size());
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  HSDL_CHECK_MSG(ec == std::errc{} && ptr == digits.data() + digits.size(),
                 "GLF 2 header: bad " << what << " value '" << digits << "'");
  return v;
}

std::uint32_t parse_crc_field(std::string_view token) {
  constexpr std::string_view key = "crc32=";
  HSDL_CHECK_MSG(token.size() == key.size() + 8 &&
                     token.substr(0, key.size()) == key,
                 "GLF 2 header: malformed crc32 field '" << token << "'");
  const std::string_view digits = token.substr(key.size());
  // Canonical lowercase hex only, so every single-bit corruption of the
  // field is detectable (base-16 from_chars would also accept 'A'-'F',
  // making a case-flipped digit parse to the same value).
  for (char c : digits)
    HSDL_CHECK_MSG((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'),
                   "GLF 2 header: bad crc32 value '" << digits << "'");
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(
      digits.data(), digits.data() + digits.size(), v, /*base=*/16);
  HSDL_CHECK_MSG(ec == std::errc{} && ptr == digits.data() + digits.size(),
                 "GLF 2 header: bad crc32 value '" << digits << "'");
  return v;
}

HotspotLabel parse_label(const std::string& s, std::size_t lineno) {
  if (s == "hotspot") return HotspotLabel::kHotspot;
  if (s == "non-hotspot") return HotspotLabel::kNonHotspot;
  if (s == "none") return HotspotLabel::kUnknown;
  HSDL_CHECK_MSG(false, "GLF line " << lineno << ": bad label '" << s << "'");
  return HotspotLabel::kUnknown;
}

geom::Rect parse_rect(const std::vector<std::string>& tok, std::size_t lineno) {
  HSDL_CHECK_MSG(tok.size() >= 5, "GLF line " << lineno << ": expected "
                                              << "x y w h");
  const geom::Coord x = parse_coord(tok[1], lineno);
  const geom::Coord y = parse_coord(tok[2], lineno);
  const geom::Coord w = parse_coord(tok[3], lineno);
  const geom::Coord h = parse_coord(tok[4], lineno);
  HSDL_CHECK_MSG(w > 0 && h > 0,
                 "GLF line " << lineno << ": non-positive extent");
  return geom::Rect::from_xywh(x, y, w, h);
}

/// Clip list body (the CLIP/RECT/ENDCLIP lines). Reported line numbers
/// count from the real file line (the header is line 1).
std::vector<LabeledClip> parse_body(std::istream& is) {
  std::vector<LabeledClip> out;
  std::string line;
  std::size_t lineno = 1;

  bool in_clip = false;
  LabeledClip current;

  while (std::getline(is, line)) {
    ++lineno;
    std::string_view sv = trim(line);
    if (sv.empty() || sv[0] == '#') continue;
    std::vector<std::string> tok = split_ws(sv);
    if (tok[0] == "CLIP") {
      HSDL_CHECK_MSG(!in_clip, "GLF line " << lineno << ": nested CLIP");
      HSDL_CHECK_MSG(tok.size() == 6,
                     "GLF line " << lineno << ": CLIP needs x y w h label");
      current = LabeledClip{};
      current.clip.window = parse_rect(tok, lineno);
      current.label = parse_label(tok[5], lineno);
      in_clip = true;
    } else if (tok[0] == "RECT") {
      HSDL_CHECK_MSG(in_clip, "GLF line " << lineno << ": RECT outside CLIP");
      current.clip.shapes.push_back(parse_rect(tok, lineno));
    } else if (tok[0] == "ENDCLIP") {
      HSDL_CHECK_MSG(in_clip,
                     "GLF line " << lineno << ": ENDCLIP outside CLIP");
      out.push_back(std::move(current));
      in_clip = false;
    } else {
      HSDL_CHECK_MSG(false,
                     "GLF line " << lineno << ": unknown token '" << tok[0]
                                 << "'");
    }
  }
  HSDL_CHECK_MSG(!in_clip, "GLF: unterminated CLIP at end of stream");
  return out;
}

std::string render_body(const std::vector<LabeledClip>& clips) {
  std::ostringstream os;
  for (const LabeledClip& lc : clips) {
    const geom::Rect& w = lc.clip.window;
    os << "CLIP " << w.lo.x << ' ' << w.lo.y << ' ' << w.width() << ' '
       << w.height() << ' ' << to_string(lc.label) << '\n';
    for (const geom::Rect& r : lc.clip.shapes)
      os << "RECT " << r.lo.x << ' ' << r.lo.y << ' ' << r.width() << ' '
         << r.height() << '\n';
    os << "ENDCLIP\n";
  }
  return os.str();
}

std::string render_glf(const std::vector<LabeledClip>& clips) {
  const std::string body = render_body(clips);
  std::ostringstream os;
  os << "GLF 2 crc32=";
  os << std::hex;
  os.width(8);
  os.fill('0');
  os << io::crc32(body);
  os << std::dec << " bytes=" << body.size() << " clips=" << clips.size()
     << '\n'
     << body;
  return os.str();
}

/// GLF 2 hardened container: the first line is
///   GLF 2 crc32=<8 hex> bytes=<N> clips=<M>
/// and the remaining N bytes are the clip body the CRC-32 covers. Any
/// bit flip, truncation or header-field mutation fails one of the
/// checks below with a positioned diagnostic; so does any other header,
/// "GLF 1" included.
std::vector<LabeledClip> parse_glf(const std::string& data) {
  const std::size_t nl = data.find('\n');
  HSDL_CHECK_MSG(nl != std::string::npos,
                 "GLF 2 header: missing end-of-line");
  const std::vector<std::string> tok =
      split_ws(std::string_view(data).substr(0, nl));
  if (tok.size() < 2 || tok[0] != "GLF" || tok[1] != "2")
    throw io::IoError("expected a 'GLF 2' header (no other version is read)",
                      0, "GLF");
  HSDL_CHECK_MSG(tok.size() == 5,
                 "GLF 2 header: expected 'GLF 2 crc32=… bytes=… clips=…', "
                 "got " << tok.size() << " token(s)");
  const std::uint32_t want_crc = parse_crc_field(tok[2]);
  const std::uint64_t want_bytes = parse_u64_field(tok[3], "bytes=", "bytes");
  const std::uint64_t want_clips = parse_u64_field(tok[4], "clips=", "clips");

  const std::string_view body = std::string_view(data).substr(nl + 1);
  if (body.size() != want_bytes)
    throw io::IoError("body is " + std::to_string(body.size()) +
                          " byte(s), header says " +
                          std::to_string(want_bytes) +
                          " (truncated or corrupt)",
                      nl + 1 + body.size(), "GLF 2");
  const std::uint32_t got_crc = io::crc32(body);
  if (got_crc != want_crc)
    throw io::IoError("body checksum mismatch (corrupt file)", nl + 1,
                      "GLF 2");

  std::istringstream is{std::string(body)};
  std::vector<LabeledClip> out = parse_body(is);
  HSDL_CHECK_MSG(out.size() == want_clips,
                 "GLF 2: body has " << out.size()
                                    << " clip(s), header says "
                                    << want_clips);
  return out;
}

}  // namespace

void write_glf(std::ostream& os, const std::vector<LabeledClip>& clips) {
  const std::string data = render_glf(clips);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void write_glf_file(const std::string& path,
                    const std::vector<LabeledClip>& clips) {
  io::atomic_write_file(path, render_glf(clips));
}

std::vector<LabeledClip> read_glf(std::istream& is) {
  return parse_glf(io::read_stream(is));
}

std::vector<LabeledClip> read_glf_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  HSDL_CHECK_MSG(is.good(), "cannot open '" << path << "' for reading");
  return read_glf(is);
}

}  // namespace hsdl::layout
