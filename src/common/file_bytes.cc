#include "src/common/file_bytes.h"

#include <filesystem>
#include <fstream>

namespace skl {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           std::string_view what) {
  const std::string name = std::string(what) + " " + path;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + name);
  // Only a regular file has a size to trust: a directory's end offset is
  // not a byte count.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::Internal(name + " is not a regular file");
  }
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) {
    return Status::Internal("cannot size " + name);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (in.gcount() != size) {
    return Status::Internal("short read of " + name + ": got " +
                            std::to_string(in.gcount()) + " of " +
                            std::to_string(size) + " bytes");
  }
  return bytes;
}

}  // namespace skl
