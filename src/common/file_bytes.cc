#include "src/common/file_bytes.h"

#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace skl {

namespace {

#if defined(__unix__) || defined(__APPLE__)
Status FsyncPath(const char* path, int flags, const std::string& what) {
  int fd = ::open(path, flags);
  if (fd < 0) return Status::Internal("cannot open " + what + " for sync");
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::Internal("cannot sync " + what);
  return Status::OK();
}
#endif

}  // namespace

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

Status SyncFile(const std::string& path, std::string_view what) {
#if defined(__unix__) || defined(__APPLE__)
  return FsyncPath(path.c_str(), O_RDONLY, std::string(what) + " " + path);
#else
  (void)path;
  (void)what;
  return Status::OK();
#endif
}

Status SyncDir(const std::string& dir, std::string_view what) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string d = dir.empty() ? "." : dir;
  return FsyncPath(d.c_str(), O_RDONLY | O_DIRECTORY,
                   std::string(what) + " " + d);
#else
  (void)dir;
  (void)what;
  return Status::OK();
#endif
}

}  // namespace skl
