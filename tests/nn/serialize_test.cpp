#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/io.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

namespace hsdl::nn {
namespace {

Sequential make_net(std::uint64_t seed) {
  Rng rng(seed);
  Sequential seq;
  seq.emplace<Linear>(4, 3, rng);
  seq.emplace<Linear>(3, 2, rng);
  return seq;
}

TEST(SerializeTest, RoundTripRestoresValues) {
  Sequential a = make_net(1);
  Sequential b = make_net(2);  // different weights
  std::stringstream ss;
  save_params(ss, a.params());
  load_params(ss, b.params());
  auto pa = a.params(), pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j)
      EXPECT_FLOAT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(SerializeTest, RoundTripPredictionsIdentical) {
  Sequential a = make_net(3);
  Sequential b = make_net(4);
  std::stringstream ss;
  save_params(ss, a.params());
  load_params(ss, b.params());
  Tensor x({2, 4}, 0.7f);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i)
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, BadMagicRejected) {
  Sequential net = make_net(5);
  std::stringstream ss("NOTACKPT________garbage");
  EXPECT_THROW(load_params(ss, net.params()), CheckError);
}

TEST(SerializeTest, TruncatedPayloadRejected) {
  Sequential a = make_net(6);
  std::stringstream ss;
  save_params(ss, a.params());
  std::string data = ss.str();
  std::stringstream cut(data.substr(0, data.size() / 2));
  Sequential b = make_net(7);
  EXPECT_THROW(load_params(cut, b.params()), CheckError);
}

TEST(SerializeTest, ParamCountMismatchRejected) {
  Sequential a = make_net(8);
  std::stringstream ss;
  save_params(ss, a.params());
  Rng rng(9);
  Sequential small;
  small.emplace<Linear>(4, 3, rng);
  EXPECT_THROW(load_params(ss, small.params()), CheckError);
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Sequential a = make_net(10);
  std::stringstream ss;
  save_params(ss, a.params());
  Rng rng(11);
  Sequential different;
  different.emplace<Linear>(5, 3, rng);  // wrong fan-in
  different.emplace<Linear>(3, 2, rng);
  EXPECT_THROW(load_params(ss, different.params()), CheckError);
}

TEST(SerializeTest, FileRoundTrip) {
  Sequential a = make_net(12);
  Sequential b = make_net(13);
  const std::string path = ::testing::TempDir() + "/ckpt_test.bin";
  save_params_file(path, a.params());
  load_params_file(path, b.params());
  Tensor x({1, 4}, 1.0f);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i)
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, MissingFileThrows) {
  Sequential a = make_net(14);
  EXPECT_THROW(load_params_file("/nonexistent/x.bin", a.params()),
               CheckError);
}

TEST(SnapshotTest, SnapshotRestoreRoundTrip) {
  Sequential net = make_net(15);
  auto snap = snapshot_params(net.params());
  // Mutate, then restore.
  for (Param* p : net.params()) p->value.fill(0.0f);
  restore_params(snap, net.params());
  for (std::size_t i = 0; i < snap.size(); ++i)
    for (std::size_t j = 0; j < snap[i].numel(); ++j)
      EXPECT_FLOAT_EQ(net.params()[i]->value[j], snap[i][j]);
}

TEST(SnapshotTest, SnapshotIsDeepCopy) {
  Sequential net = make_net(16);
  auto snap = snapshot_params(net.params());
  const float orig = snap[0][0];
  net.params()[0]->value[0] = orig + 100.0f;
  EXPECT_FLOAT_EQ(snap[0][0], orig);
}

TEST(SnapshotTest, SizeMismatchThrows) {
  Sequential net = make_net(17);
  std::vector<Tensor> wrong(1);
  EXPECT_THROW(restore_params(wrong, net.params()), CheckError);
}

TEST(SerializeTest, WritesVersion2Container) {
  Sequential net = make_net(18);
  const std::string buf = serialize_params(net.params());
  ASSERT_GE(buf.size(), io::kFormatHeaderSize);
  EXPECT_EQ(buf.substr(0, 7), "HSDLNN2");
  EXPECT_EQ(buf[7], '\0');
}

TEST(SerializeTest, SaveIsBitwiseDeterministic) {
  Sequential a = make_net(19);
  const std::string first = serialize_params(a.params());
  Sequential b = make_net(20);
  deserialize_params(first, b.params());
  // Same bytes from a repeat save and from a loaded copy.
  EXPECT_EQ(serialize_params(a.params()), first);
  EXPECT_EQ(serialize_params(b.params()), first);
}

TEST(SerializeTest, TrailingBytesRejectedV2) {
  Sequential a = make_net(21);
  const std::string good = serialize_params(a.params());
  Sequential b = make_net(22);
  EXPECT_THROW(deserialize_params(good + std::string(1, '\0'), b.params()),
               CheckError);
  std::stringstream ss(good + "x");
  EXPECT_THROW(load_params(ss, b.params()), CheckError);
}

/// Hand-built v1 image: "HSDLNN1\n", native-endian u64 fields, raw
/// float payloads, no checksums — exactly what the v1 writer emitted.
std::string v1_bytes(const std::vector<Param*>& params) {
  std::string out("HSDLNN1\n", 8);
  auto put_u64 = [&out](std::uint64_t v) {
    char b[sizeof(v)];
    std::memcpy(b, &v, sizeof(v));
    out.append(b, sizeof(v));
  };
  put_u64(params.size());
  for (const Param* p : params) {
    put_u64(p->name.size());
    out += p->name;
    put_u64(p->value.dim());
    for (std::size_t e : p->value.shape()) put_u64(e);
    out.append(reinterpret_cast<const char*>(p->value.data()),
               p->value.numel() * sizeof(float));
  }
  return out;
}

TEST(SerializeTest, V1CheckpointRejectedWithPosition) {
  // v1 had no checksums; it is no longer read. The load fails on the
  // magic, with the offset where decoding stopped, and leaves the
  // target network untouched.
  Sequential a = make_net(23);
  Sequential b = make_net(24);
  const std::vector<Tensor> before = snapshot_params(b.params());
  try {
    deserialize_params(v1_bytes(a.params()), b.params());
    FAIL() << "v1 checkpoint accepted";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.offset(), 8u);
  }
  auto pb = b.params();
  for (std::size_t i = 0; i < pb.size(); ++i)
    for (std::size_t j = 0; j < pb[i]->value.numel(); ++j)
      EXPECT_EQ(pb[i]->value[j], before[i][j]);
}

TEST(SerializeTest, InterruptedSaveLeavesPreviousCheckpointIntact) {
  Sequential a = make_net(27);
  const std::string path = ::testing::TempDir() + "/ckpt_atomic_test.bin";
  save_params_file(path, a.params());
  // Simulate a crash mid-save: a partial temp file exists, the target
  // was never touched.
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "HSDLNN2";  // truncated garbage
  }
  Sequential b = make_net(28);
  load_params_file(path, b.params());
  for (std::size_t i = 0; i < b.params().size(); ++i)
    for (std::size_t j = 0; j < b.params()[i]->value.numel(); ++j)
      EXPECT_FLOAT_EQ(b.params()[i]->value[j], a.params()[i]->value[j]);
  // The next save overwrites the stale temp and the checkpoint.
  Sequential c = make_net(29);
  save_params_file(path, c.params());
  load_params_file(path, b.params());
  for (std::size_t i = 0; i < b.params().size(); ++i)
    for (std::size_t j = 0; j < b.params()[i]->value.numel(); ++j)
      EXPECT_FLOAT_EQ(b.params()[i]->value[j], c.params()[i]->value[j]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hsdl::nn
