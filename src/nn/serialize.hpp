// Model parameter serialization.
//
// The current checkpoint container is v2 ("HSDLNN2\0" magic): a
// {magic, version, flags} header, then per parameter a name, shape,
// byte-counted little-endian float payload and a CRC-32 of the record,
// and finally a CRC-32 of the whole file. Loading verifies both
// checksum levels, that names and shapes match the target network, and
// that the stream ends exactly at the end of the format, so a
// truncated, bit-flipped or concatenated file is rejected with a
// positioned diagnostic instead of silently restoring garbage.
//
// Any other magic, including the unchecksummed v1 "HSDLNN1\n", is
// rejected with a positioned bad-magic error. File saves are atomic
// (write temp + rename), so an interrupted save leaves the previous
// checkpoint intact.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layer.hpp"

namespace hsdl::nn {

/// Checkpoint container version written by save_params.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Encodes the v2 checkpoint into an in-memory buffer.
std::string serialize_params(const std::vector<Param*>& params);

/// Decodes a v2 checkpoint buffer into the params, in place.
/// Throws hsdl::io::IoError (a CheckError) carrying the byte offset on
/// any structural damage, checksum mismatch, or trailing data; throws
/// CheckError on name/shape mismatch with the target network.
void deserialize_params(std::string_view data,
                        const std::vector<Param*>& params,
                        const std::string& context = "checkpoint");

void save_params(std::ostream& os, const std::vector<Param*>& params);
/// Atomic: writes "<path>.tmp" then renames over `path`.
void save_params_file(const std::string& path,
                      const std::vector<Param*>& params);

/// Restores values in place; consumes the rest of the stream and
/// rejects trailing data (see deserialize_params for the error model).
void load_params(std::istream& is, const std::vector<Param*>& params);
void load_params_file(const std::string& path,
                      const std::vector<Param*>& params);

/// Deep-copies parameter values (for best-on-validation snapshots).
std::vector<Tensor> snapshot_params(const std::vector<Param*>& params);
void restore_params(const std::vector<Tensor>& snapshot,
                    const std::vector<Param*>& params);

}  // namespace hsdl::nn
