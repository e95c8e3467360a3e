#include "hotspot/scan_journal.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/io.hpp"
#include "common/logging.hpp"

namespace hsdl::hotspot {
namespace {

constexpr std::string_view kMagic = "HSDLSCNJ";
/// Version 2: fp32 numerics changed (the stride-1 convolution fuses each
/// multiply-add), so probabilities journaled by a version 1 scan are not
/// the bits this build would score. A version mismatch starts a fresh
/// journal, which keeps a resumed scan equal to an uninterrupted one.
constexpr std::uint32_t kVersion = 2;
/// magic + version + flags + fingerprint, before the header CRC.
constexpr std::size_t kHeaderBody = io::kFormatHeaderSize + 8;

std::string encode_header(std::uint64_t fingerprint) {
  io::ByteWriter w;
  io::write_format_header(w, kMagic, kVersion, /*flags=*/0);
  w.u64(fingerprint);
  const std::uint32_t crc = io::crc32(w.buffer());
  w.u32(crc);
  return w.take();
}

std::string encode_record(const BandResult& band) {
  io::ByteWriter payload;
  payload.u64(band.band_index);
  payload.u64(band.windows);
  payload.u32(static_cast<std::uint32_t>(band.hits.size()));
  for (const ScanHit& hit : band.hits) {
    payload.i64(hit.window.lo.x);
    payload.i64(hit.window.lo.y);
    payload.i64(hit.window.hi.x);
    payload.i64(hit.window.hi.y);
    payload.f64(hit.probability);
  }
  io::ByteWriter rec;
  rec.u32(static_cast<std::uint32_t>(payload.size()));
  rec.bytes(payload.buffer().data(), payload.size());
  rec.u32(io::crc32(payload.buffer()));
  return rec.take();
}

BandResult decode_payload(std::string_view payload) {
  io::ByteReader r(payload, "scan journal record");
  BandResult band;
  band.band_index = r.u64();
  band.windows = r.u64();
  const std::uint32_t n = r.u32();
  band.hits.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ScanHit hit;
    hit.window.lo.x = r.i64();
    hit.window.lo.y = r.i64();
    hit.window.hi.x = r.i64();
    hit.window.hi.y = r.i64();
    hit.probability = r.f64();
    band.hits.push_back(hit);
  }
  r.expect_end();
  return band;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

}  // namespace

ScanJournal::ScanJournal(std::string path, std::uint64_t fingerprint)
    : path_(std::move(path)), fingerprint_(fingerprint) {
  std::error_code ec;
  if (std::filesystem::exists(path_, ec) && load_existing()) {
    resumed_ = true;
    out_.open(path_, std::ios::binary | std::ios::app);
  } else {
    start_fresh();
  }
  HSDL_CHECK_MSG(out_.good(),
                 "scan journal: cannot open " << path_ << " for append");
}

std::uint64_t ScanJournal::fingerprint(const ScanConfig& config,
                                       const geom::Rect& extent,
                                       std::uint64_t source_fingerprint,
                                       std::uint64_t model_fingerprint) {
  io::ByteWriter w;
  w.i64(config.window_size);
  w.i64(config.stride);
  w.u64(config.band_rows);
  w.i64(extent.lo.x);
  w.i64(extent.lo.y);
  w.i64(extent.hi.x);
  w.i64(extent.hi.y);
  w.u64(source_fingerprint);
  w.u64(model_fingerprint);
  return io::crc32(w.buffer());
}

const BandResult* ScanJournal::result(std::uint64_t band_index) const {
  const auto it = bands_.find(band_index);
  return it == bands_.end() ? nullptr : &it->second;
}

void ScanJournal::append(const BandResult& band) {
  const std::string rec = encode_record(band);
  out_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  out_.flush();
  HSDL_CHECK_MSG(out_.good(),
                 "scan journal: append to " << path_ << " failed");
  bands_[band.band_index] = band;
}

void ScanJournal::remove() {
  out_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);
  bands_.clear();
  resumed_ = false;
}

bool ScanJournal::load_existing() {
  const std::string data = read_file(path_);
  if (data.size() < kHeaderBody + 4) return false;
  try {
    io::ByteReader r(std::string_view(data).substr(0, kHeaderBody + 4),
                     "scan journal header");
    const io::FormatHeader header =
        io::read_format_header(r, kMagic, kVersion, kVersion);
    (void)header;
    const std::uint64_t stored = r.u64();
    const std::uint32_t crc = r.u32();
    if (crc != io::crc32(data.data(), kHeaderBody)) return false;
    if (stored != fingerprint_) {
      HSDL_LOG(kWarn) << "scan journal " << path_
                      << ": fingerprint mismatch (journal " << stored
                      << ", scan " << fingerprint_ << "); starting fresh";
      return false;
    }
  } catch (const io::IoError&) {
    return false;
  }

  // Parse the record stream; stop at the first torn or corrupt record
  // and truncate the file back to the good prefix. A record that fails
  // its CRC or its payload decode is treated the same as a torn one:
  // everything from its start is discarded.
  std::size_t good = kHeaderBody + 4;
  std::size_t torn_tail = 0;
  const std::string_view view(data);
  while (good < data.size()) {
    if (data.size() - good < 4) break;
    io::ByteReader len_r(view.substr(good, 4), "scan journal record length");
    const std::uint32_t len = len_r.u32();
    if (data.size() - good < 4u + len + 4u) break;
    const std::string_view payload = view.substr(good + 4, len);
    io::ByteReader crc_r(view.substr(good + 4 + len, 4),
                         "scan journal record crc");
    if (crc_r.u32() != io::crc32(payload)) break;
    try {
      BandResult band = decode_payload(payload);
      bands_[band.band_index] = std::move(band);
    } catch (const io::IoError&) {
      break;
    }
    good += 4u + len + 4u;
  }
  torn_tail = data.size() - good;
  if (torn_tail > 0) {
    HSDL_LOG(kWarn) << "scan journal " << path_ << ": discarding "
                    << torn_tail << " torn trailing bytes ("
                    << bands_.size() << " complete bands kept)";
    std::error_code ec;
    std::filesystem::resize_file(path_, good, ec);
    if (ec) return false;
  }
  return true;
}

void ScanJournal::start_fresh() {
  bands_.clear();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_.good()) return;  // ctor reports the failure with the path
  const std::string header = encode_header(fingerprint_);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
}

}  // namespace hsdl::hotspot
