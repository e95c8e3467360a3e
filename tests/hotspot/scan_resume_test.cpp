// Crash-safe scan tests (DESIGN.md §14): a scan killed mid-way by an
// injected band fault resumes from its journal and produces a report
// bitwise identical to an uninterrupted scan; torn or corrupt journal
// tails are truncated; a fingerprint mismatch — other geometry, other
// model — or an older journal version starts fresh.
#include "hotspot/scan_journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scanner.hpp"

namespace hsdl::hotspot {
namespace {

CnnDetectorConfig small_config() {
  CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 8;
  config.feature.nm_per_px = 4.0;  // 1200 nm window -> 300 px raster
  config.cnn.stage1_maps = 4;
  config.cnn.stage2_maps = 4;
  config.cnn.fc_nodes = 8;
  return config;
}

/// 2400x4800 chip: 2 window columns x 4 rows at stride 1200, with
/// enough geometry spread around that scores differ across windows.
layout::Layout test_chip() {
  std::vector<geom::Rect> shapes;
  for (geom::Coord y = 0; y < 4800; y += 400) {
    for (geom::Coord x = 0; x < 2400; x += 600) {
      shapes.push_back(geom::Rect::from_xywh(x + (y % 800) / 8, y, 180, 90));
    }
  }
  return layout::Layout(geom::Rect::from_xywh(0, 0, 2400, 4800),
                        std::move(shapes));
}

ScanConfig band_per_row_config() {
  ScanConfig config;
  config.window_size = 1200;
  config.stride = 1200;
  config.band_rows = 1;  // 4 bands -> fine-grained kill points
  return config;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void expect_same_report(const ScanReport& a, const ScanReport& b) {
  EXPECT_EQ(a.windows_scanned, b.windows_scanned);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].window, b.hits[i].window);
    // Bitwise, not approximate: replayed bands must reproduce the
    // exact probabilities the first run journaled.
    EXPECT_EQ(a.hits[i].probability, b.hits[i].probability);
  }
}

TEST(ScanResumeTest, KilledScanResumesBitwiseIdentical) {
  const layout::Layout chip = test_chip();
  const layout::FlatSource source(chip);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());
  const std::string path = temp_path("hsdl_scan_resume_test.journal");
  std::filesystem::remove(path);

  InferenceEngine clean_engine(detector);
  const ScanReport clean = scanner.scan(source, clean_engine);
  ASSERT_EQ(clean.windows_scanned, 8u);  // 2 cols x 4 rows

  // Kill the scan at the start of band 2: bands 0 and 1 are journaled,
  // the rest never ran.
  {
    fault::Plan plan;
    plan.specs.push_back({"scan.band", fault::Kind::kFail, 1.0, 0.0,
                          /*start_after=*/2, /*max_fires=*/0});
    fault::ScopedPlan armed(std::move(plan));
    InferenceEngine engine(detector);
    EXPECT_THROW(
        scanner.scan(source, engine, nullptr, {.journal_path = path}),
        CheckError);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resume with a fresh engine: only the 2 remaining bands (2 clips
  // each) are scored; bands 0-1 replay from the journal.
  InferenceEngine resume_engine(detector);
  const ScanReport resumed =
      scanner.scan(source, resume_engine, nullptr, {.journal_path = path});
  expect_same_report(clean, resumed);
  EXPECT_EQ(resume_engine.stats().requests, 4u);
  // A completed scan cleans up its resume state.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ScanResumeTest, ResumeUnderADifferentModelRescansEveryBand) {
  const layout::Layout chip = test_chip();
  const layout::FlatSource source(chip);
  const CnnDetector detector_a(small_config());
  CnnDetectorConfig config_b = small_config();
  config_b.cnn.seed = 43;  // same architecture, different weights
  const CnnDetector detector_b(config_b);
  const ChipScanner scanner(band_per_row_config());
  const std::string path = temp_path("hsdl_scan_resume_model.journal");
  std::filesystem::remove(path);

  InferenceEngine clean_engine(detector_b);
  const ScanReport clean = scanner.scan(source, clean_engine);

  // Kill a scan under detector A once bands 0 and 1 are journaled.
  {
    fault::Plan plan;
    plan.specs.push_back({"scan.band", fault::Kind::kFail, 1.0, 0.0,
                          /*start_after=*/2, /*max_fires=*/0});
    fault::ScopedPlan armed(std::move(plan));
    InferenceEngine engine(detector_a);
    EXPECT_THROW(
        scanner.scan(source, engine, nullptr, {.journal_path = path}),
        CheckError);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resuming under B must not replay A's bands: B scores all 8 windows
  // and reports exactly what an uninterrupted B scan reports.
  InferenceEngine resume_engine(detector_b);
  const ScanReport resumed =
      scanner.scan(source, resume_engine, nullptr, {.journal_path = path});
  expect_same_report(clean, resumed);
  EXPECT_EQ(resume_engine.stats().requests, 8u);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ScanResumeTest, ResumeAcrossShardCountsIsBitwiseIdentical) {
  const layout::Layout chip = test_chip();
  const layout::FlatSource source(chip);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());
  const std::string path = temp_path("hsdl_scan_resume_shards.journal");

  InferenceEngine clean_engine(detector);
  const ScanReport clean = scanner.scan(source, clean_engine);

  // Killed at 2 shards and resumed at 1, then the reverse. Whichever
  // bands the killed run journaled, the resumed report is the
  // uninterrupted one.
  const std::pair<std::size_t, std::size_t> runs[] = {{2, 1}, {1, 2}};
  for (const auto& [killed_shards, resumed_shards] : runs) {
    SCOPED_TRACE(std::to_string(killed_shards) + " -> " +
                 std::to_string(resumed_shards) + " shards");
    std::filesystem::remove(path);
    {
      // The first two bands pass the fault point and are journaled;
      // every later band start fails.
      fault::Plan plan;
      plan.specs.push_back({"scan.band", fault::Kind::kFail, 1.0, 0.0,
                            /*start_after=*/2, /*max_fires=*/0});
      fault::ScopedPlan armed(std::move(plan));
      InferenceEngine engine(detector);
      EXPECT_THROW(scanner.scan(source, engine, nullptr,
                                {.journal_path = path,
                                 .shards = killed_shards}),
                   CheckError);
    }
    ASSERT_TRUE(std::filesystem::exists(path));
    EXPECT_EQ(ScanJournal(path, ScanJournal::fingerprint(
                                    band_per_row_config(), chip.extent(),
                                    source.fingerprint(),
                                    detector.model_fingerprint()))
                  .bands(),
              2u);

    InferenceEngine resume_engine(detector);
    const ScanReport resumed =
        scanner.scan(source, resume_engine, nullptr,
                     {.journal_path = path, .shards = resumed_shards});
    expect_same_report(clean, resumed);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

TEST(ScanResumeTest, ModelFingerprintCoversWeightsAndThreshold) {
  CnnDetector detector(small_config());
  const std::uint64_t fp32 = detector.model_fingerprint();
  // Deterministic for the same weights.
  EXPECT_EQ(CnnDetector(small_config()).model_fingerprint(), fp32);

  CnnDetectorConfig other_weights = small_config();
  other_weights.cnn.seed = 43;
  EXPECT_NE(CnnDetector(other_weights).model_fingerprint(), fp32);

  // A moved decision boundary flags different windows.
  detector.set_shift(0.1);
  EXPECT_NE(detector.model_fingerprint(), fp32);
}

TEST(ScanResumeTest, JournalRoundTripAndTornTailTruncation) {
  const std::string path = temp_path("hsdl_scan_journal_test.journal");
  std::filesystem::remove(path);

  BandResult band0;
  band0.band_index = 0;
  band0.windows = 3;
  band0.hits = {{geom::Rect::from_xywh(0, 0, 1200, 1200), 0.75},
                {geom::Rect::from_xywh(1200, 0, 1200, 1200), 0.5}};
  BandResult band1;
  band1.band_index = 1;
  band1.windows = 3;  // no hits

  {
    ScanJournal journal(path, /*fingerprint=*/42);
    EXPECT_FALSE(journal.resumed());
    journal.append(band0);
    journal.append(band1);
  }
  // Simulate a crash mid-append: garbage where the next record starts.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x30\x00\x00\x00torn", 8);
  }
  ScanJournal journal(path, 42);
  EXPECT_TRUE(journal.resumed());
  ASSERT_EQ(journal.bands(), 2u);
  const BandResult* got = journal.result(0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->windows, 3u);
  ASSERT_EQ(got->hits.size(), 2u);
  EXPECT_EQ(got->hits[0].window, band0.hits[0].window);
  EXPECT_EQ(got->hits[0].probability, 0.75);
  EXPECT_TRUE(journal.has(1));
  EXPECT_FALSE(journal.has(2));
  // The torn tail was truncated in place, so the file is exactly the
  // two good records again.
  ScanJournal reopened(path, 42);
  EXPECT_EQ(reopened.bands(), 2u);
  journal.remove();
}

TEST(ScanResumeTest, CorruptRecordDropsItAndItsTail) {
  const std::string path = temp_path("hsdl_scan_journal_corrupt.journal");
  std::filesystem::remove(path);
  BandResult band;
  band.windows = 2;
  {
    ScanJournal journal(path, 7);
    band.band_index = 0;
    journal.append(band);
    band.band_index = 1;
    journal.append(band);
  }
  // Flip one byte inside the second record's payload: its CRC no
  // longer matches, so resume keeps only the first band.
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(size) - 10);
    f.put('\xff');
  }
  ScanJournal journal(path, 7);
  EXPECT_TRUE(journal.resumed());
  EXPECT_EQ(journal.bands(), 1u);
  EXPECT_TRUE(journal.has(0));
  EXPECT_FALSE(journal.has(1));
  journal.remove();
}

TEST(ScanResumeTest, FingerprintMismatchStartsFresh) {
  const std::string path = temp_path("hsdl_scan_journal_fp.journal");
  std::filesystem::remove(path);
  BandResult band;
  band.band_index = 0;
  band.windows = 1;
  {
    ScanJournal journal(path, 1);
    journal.append(band);
  }
  ScanJournal other(path, 2);  // different scan geometry
  EXPECT_FALSE(other.resumed());
  EXPECT_EQ(other.bands(), 0u);
  other.remove();
}

TEST(ScanResumeTest, OlderJournalVersionStartsFresh) {
  // Version 2 journals hold probabilities from the FMA convolution; a
  // version 1 journal's bands came from the earlier mul+add kernel, and
  // replaying them would mix two kernels' bits in one report. Same
  // fingerprint, valid header CRC: only the version differs.
  const std::string path = temp_path("hsdl_scan_journal_v1.journal");
  std::filesystem::remove(path);
  BandResult band;
  band.band_index = 0;
  band.windows = 1;
  {
    ScanJournal journal(path, 9);
    journal.append(band);
  }
  ASSERT_TRUE(ScanJournal(path, 9).resumed());  // the unpatched control

  io::ByteWriter header;
  io::write_format_header(header, "HSDLSCNJ", /*version=*/1, /*flags=*/0);
  header.u64(9);
  header.u32(io::crc32(header.buffer()));
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.write(header.buffer().data(),
            static_cast<std::streamsize>(header.size()));
  }
  ScanJournal journal(path, 9);
  EXPECT_FALSE(journal.resumed());
  EXPECT_EQ(journal.bands(), 0u);
  journal.remove();
}

TEST(ScanResumeTest, FingerprintCoversGeometry) {
  const geom::Rect extent = geom::Rect::from_xywh(0, 0, 2400, 4800);
  ScanConfig a = band_per_row_config();
  ScanConfig b = a;
  EXPECT_EQ(ScanJournal::fingerprint(a, extent),
            ScanJournal::fingerprint(b, extent));
  b.stride = 600;
  EXPECT_NE(ScanJournal::fingerprint(a, extent),
            ScanJournal::fingerprint(b, extent));
  b = a;
  b.band_rows = 2;
  EXPECT_NE(ScanJournal::fingerprint(a, extent),
            ScanJournal::fingerprint(b, extent));
  EXPECT_NE(ScanJournal::fingerprint(
                a, geom::Rect::from_xywh(0, 0, 2400, 2400)),
            ScanJournal::fingerprint(a, extent));
  EXPECT_NE(ScanJournal::fingerprint(a, extent, 0, /*model=*/1),
            ScanJournal::fingerprint(a, extent, 0, /*model=*/2));
}

TEST(ScanResumeTest, BandRowsValidated) {
  ScanConfig config;
  config.band_rows = 0;
  EXPECT_THROW(config.validate(), CheckError);
}

}  // namespace
}  // namespace hsdl::hotspot
