#include "layout/glf.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/io.hpp"

namespace hsdl::layout {
namespace {

using geom::Rect;

std::vector<LabeledClip> sample_clips() {
  std::vector<LabeledClip> clips(2);
  clips[0].clip.window = Rect::from_xywh(0, 0, 1200, 1200);
  clips[0].clip.shapes = {Rect::from_xywh(0, 0, 100, 40),
                          Rect::from_xywh(200, 300, 40, 400)};
  clips[0].label = HotspotLabel::kHotspot;
  clips[1].clip.window = Rect::from_xywh(100, 100, 1200, 1200);
  clips[1].clip.shapes = {Rect::from_xywh(150, 150, 60, 60)};
  clips[1].label = HotspotLabel::kNonHotspot;
  return clips;
}

/// Wraps a hand-written clip body in a valid GLF 2 header, so body
/// grammar errors surface past the container checks.
std::string glf2(const std::string& body, std::size_t clips = 0) {
  char crc[9];
  std::snprintf(crc, sizeof(crc), "%08x", io::crc32(body));
  return "GLF 2 crc32=" + std::string(crc) +
         " bytes=" + std::to_string(body.size()) +
         " clips=" + std::to_string(clips) + "\n" + body;
}

TEST(GlfTest, RoundTripPreservesEverything) {
  auto clips = sample_clips();
  std::stringstream ss;
  write_glf(ss, clips);
  auto loaded = read_glf(ss);
  ASSERT_EQ(loaded.size(), clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(loaded[i].clip.window, clips[i].clip.window);
    EXPECT_EQ(loaded[i].clip.shapes, clips[i].clip.shapes);
    EXPECT_EQ(loaded[i].label, clips[i].label);
  }
}

TEST(GlfTest, UnknownLabelRoundTrips) {
  std::vector<LabeledClip> clips(1);
  clips[0].clip.window = Rect::from_xywh(0, 0, 10, 10);
  clips[0].label = HotspotLabel::kUnknown;
  std::stringstream ss;
  write_glf(ss, clips);
  EXPECT_NE(ss.str().find(" none"), std::string::npos);
  auto loaded = read_glf(ss);
  EXPECT_EQ(loaded[0].label, HotspotLabel::kUnknown);
}

TEST(GlfTest, EmptyClipListRoundTrips) {
  std::stringstream ss;
  write_glf(ss, {});
  EXPECT_TRUE(read_glf(ss).empty());
}

TEST(GlfTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(glf2(
      "# a comment\n"
      "\n"
      "CLIP 0 0 100 100 hotspot\n"
      "  # indented comment\n"
      "RECT 1 2 3 4\n"
      "ENDCLIP\n",
      1));
  auto clips = read_glf(ss);
  ASSERT_EQ(clips.size(), 1u);
  EXPECT_EQ(clips[0].clip.shapes[0], Rect::from_xywh(1, 2, 3, 4));
}

TEST(GlfTest, MissingHeaderThrows) {
  std::stringstream ss("CLIP 0 0 10 10 none\nENDCLIP\n");
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, EmptyStreamThrows) {
  std::stringstream ss("");
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, UnterminatedClipThrows) {
  std::stringstream ss(glf2("CLIP 0 0 10 10 none\nRECT 0 0 1 1\n"));
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, NestedClipThrows) {
  std::stringstream ss(
      glf2("CLIP 0 0 10 10 none\nCLIP 0 0 10 10 none\n"));
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, RectOutsideClipThrows) {
  std::stringstream ss(glf2("RECT 0 0 1 1\n"));
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, BadLabelThrows) {
  std::stringstream ss(glf2("CLIP 0 0 10 10 maybe\nENDCLIP\n"));
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, NonPositiveExtentThrows) {
  std::stringstream ss(
      glf2("CLIP 0 0 10 10 none\nRECT 0 0 0 5\nENDCLIP\n"));
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, UnknownTokenThrows) {
  std::stringstream ss(glf2("BOGUS 1 2 3\n"));
  EXPECT_THROW(read_glf(ss), hsdl::CheckError);
}

TEST(GlfTest, ErrorMessageIncludesLineNumber) {
  std::stringstream ss(glf2("CLIP 0 0 10 10 bogus\n"));
  try {
    read_glf(ss);
    FAIL();
  } catch (const hsdl::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GlfTest, FileRoundTrip) {
  auto clips = sample_clips();
  const std::string path = ::testing::TempDir() + "/glf_test.glf";
  write_glf_file(path, clips);
  auto loaded = read_glf_file(path);
  EXPECT_EQ(loaded.size(), clips.size());
}

TEST(GlfTest, MissingFileThrows) {
  EXPECT_THROW(read_glf_file("/nonexistent/nope.glf"), hsdl::CheckError);
}

TEST(GlfTest, NegativeCoordinatesSupported) {
  std::stringstream ss(glf2(
      "CLIP -100 -100 200 200 none\nRECT -50 -50 30 30\nENDCLIP\n", 1));
  auto clips = read_glf(ss);
  EXPECT_EQ(clips[0].clip.window.lo.x, -100);
  EXPECT_EQ(clips[0].clip.shapes[0].lo, (geom::Point{-50, -50}));
}

TEST(GlfTest, WriterEmitsChecksummedHeader) {
  std::stringstream ss;
  write_glf(ss, sample_clips());
  EXPECT_EQ(ss.str().rfind("GLF 2 crc32=", 0), 0u);
  EXPECT_NE(ss.str().find(" bytes="), std::string::npos);
  EXPECT_NE(ss.str().find(" clips=2"), std::string::npos);
}

TEST(GlfTest, BodyCorruptionRejectedWithChecksumDiagnostic) {
  std::stringstream ss;
  write_glf(ss, sample_clips());
  std::string data = ss.str();
  // Corrupt one digit inside the body (a coordinate), keeping it a
  // well-formed GLF line: only the checksum can catch this.
  const std::size_t pos = data.find("CLIP 0 0 1200");
  ASSERT_NE(pos, std::string::npos);
  data[pos + 10] = '3';  // 1200 -> 1300
  std::stringstream bad(data);
  try {
    read_glf(bad);
    FAIL() << "corrupt GLF body accepted";
  } catch (const hsdl::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(GlfTest, ByteCountMismatchRejected) {
  std::stringstream ss;
  write_glf(ss, sample_clips());
  std::string data = ss.str();
  const std::size_t pos = data.find("bytes=") + 6;
  data[pos] = data[pos] == '9' ? '8' : static_cast<char>(data[pos] + 1);
  std::stringstream bad(data);
  EXPECT_THROW(read_glf(bad), hsdl::CheckError);
}

TEST(GlfTest, ClipCountMismatchRejected) {
  std::stringstream ss;
  write_glf(ss, sample_clips());
  std::string data = ss.str();
  const std::size_t pos = data.find("clips=") + 6;
  data[pos] = '7';
  std::stringstream bad(data);
  EXPECT_THROW(read_glf(bad), hsdl::CheckError);
}

TEST(GlfTest, BadIntegerRejectedWithLineNumber) {
  // std::stoll would have parsed "1x0" as 1; the full-match parser
  // rejects it inside the positioned CheckError taxonomy.
  std::stringstream ss(glf2("CLIP 0 0 1x0 10 none\nENDCLIP\n"));
  try {
    read_glf(ss);
    FAIL() << "malformed integer accepted";
  } catch (const hsdl::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos);
    EXPECT_NE(what.find("bad integer"), std::string::npos);
  }
}

TEST(GlfTest, Glf1RejectedWithPosition) {
  // GLF 1 had no checksum; it is no longer read.
  std::stringstream ss(
      "GLF 1\n"
      "CLIP 0 0 100 100 hotspot\n"
      "RECT 10 20 30 40\n"
      "ENDCLIP\n");
  try {
    read_glf(ss);
    FAIL() << "GLF 1 file accepted";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("GLF 2"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.offset(), 0u);
  }
}

TEST(GlfTest, FileWriteLeavesNoTempBehind) {
  const std::string path = ::testing::TempDir() + "/glf_atomic_test.glf";
  write_glf_file(path, sample_clips());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hsdl::layout
