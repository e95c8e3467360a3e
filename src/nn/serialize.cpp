#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/io.hpp"

namespace hsdl::nn {
namespace {

// v2 container (all integers little-endian):
//   "HSDLNN2\0" | u32 version=2 | u32 flags=0 | u64 param_count
//   per param, a record starting at offset R:
//     u32 name_len | name | u32 ndim | u64 dim[ndim]
//     u64 payload_bytes | f32 payload (little-endian)
//     u32 record_crc — crc32 of bytes [R, here)
//   u32 file_crc — crc32 of bytes [0, here)
// and nothing after: loaders reject trailing data.
constexpr char kMagicV2[] = "HSDLNN2\0";
constexpr std::size_t kMaxDims = 16;

void load_params_v2(io::ByteReader& r, std::string_view data,
                    const std::vector<Param*>& params) {
  io::read_format_header(r, std::string_view(kMagicV2, io::kMagicSize),
                         kCheckpointVersion, kCheckpointVersion);
  const std::uint64_t n = r.u64();
  HSDL_CHECK_MSG(n == params.size(), "checkpoint has " << n
                                                       << " params, model has "
                                                       << params.size());
  for (Param* p : params) {
    const std::size_t record_begin = r.pos();
    const std::string name = r.str();
    HSDL_CHECK_MSG(name == p->name, "checkpoint param '"
                                        << name << "' where model expects '"
                                        << p->name << "'");
    const std::uint32_t ndim = r.u32();
    if (ndim > kMaxDims) r.fail("implausible rank for param '" + name + "'");
    std::vector<std::size_t> shape(ndim);
    for (auto& e : shape) e = static_cast<std::size_t>(r.u64());
    HSDL_CHECK_MSG(shape == p->value.shape(),
                   "shape mismatch for param '" << name << "'");
    const std::uint64_t payload_bytes = r.u64();
    if (payload_bytes != p->value.numel() * sizeof(float))
      r.fail("payload byte count does not match the shape of param '" +
             name + "'");
    r.f32_array(p->value.data(), p->value.numel());
    const std::uint32_t stored_record_crc = r.u32();
    const std::uint32_t actual_record_crc = io::crc32(
        data.substr(record_begin, r.pos() - sizeof(std::uint32_t) -
                                      record_begin));
    if (stored_record_crc != actual_record_crc)
      r.fail("checksum mismatch in record of param '" + name +
             "' (corrupt checkpoint)");
  }
  const std::uint32_t stored_file_crc = r.u32();
  const std::uint32_t actual_file_crc =
      io::crc32(data.substr(0, r.pos() - sizeof(std::uint32_t)));
  if (stored_file_crc != actual_file_crc)
    r.fail("whole-file checksum mismatch (corrupt checkpoint)");
  r.expect_end();
}

}  // namespace

std::string serialize_params(const std::vector<Param*>& params) {
  io::ByteWriter w;
  io::write_format_header(w, std::string_view(kMagicV2, io::kMagicSize),
                          kCheckpointVersion, /*flags=*/0);
  w.u64(params.size());
  for (const Param* p : params) {
    const std::size_t record_begin = w.size();
    w.str(p->name);
    w.u32(static_cast<std::uint32_t>(p->value.dim()));
    for (std::size_t e : p->value.shape()) w.u64(e);
    w.u64(p->value.numel() * sizeof(float));
    w.f32_array(p->value.data(), p->value.numel());
    w.u32(io::crc32(std::string_view(w.buffer()).substr(record_begin)));
  }
  w.u32(io::crc32(w.buffer()));
  return w.take();
}

void deserialize_params(std::string_view data,
                        const std::vector<Param*>& params,
                        const std::string& context) {
  io::ByteReader r(data, context);
  load_params_v2(r, data, params);
}

void save_params(std::ostream& os, const std::vector<Param*>& params) {
  const std::string buf = serialize_params(params);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  HSDL_CHECK_MSG(os.good(), "checkpoint write failed");
}

void load_params(std::istream& is, const std::vector<Param*>& params) {
  deserialize_params(io::read_stream(is), params);
}

void save_params_file(const std::string& path,
                      const std::vector<Param*>& params) {
  io::atomic_write_file(path, serialize_params(params));
}

void load_params_file(const std::string& path,
                      const std::vector<Param*>& params) {
  deserialize_params(io::read_file(path), params, path);
}

std::vector<Tensor> snapshot_params(const std::vector<Param*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const Param* p : params) out.push_back(p->value);
  return out;
}

void restore_params(const std::vector<Tensor>& snapshot,
                    const std::vector<Param*>& params) {
  HSDL_CHECK(snapshot.size() == params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    HSDL_CHECK(same_shape(snapshot[i], params[i]->value));
    params[i]->value = snapshot[i];
  }
}

}  // namespace hsdl::nn
