// File access shared by the durable formats (snapshots, op-logs): whole-file
// reads, sized once and read with one bulk read, never byte by byte; and
// the fsync calls that make a written file, or a directory entry, durable.
#ifndef SKL_COMMON_FILE_BYTES_H_
#define SKL_COMMON_FILE_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace skl {

/// Every byte of the file at `path`. `what` names the file in errors
/// ("snapshot file"). NotFound if the file cannot be opened; Internal if it
/// cannot be sized or yields fewer bytes than its size.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           std::string_view what);

/// Flushes the file at `path` to stable storage. `what` names the file in
/// errors ("snapshot file"). Internal if it cannot be opened or synced; a
/// no-op on platforms without fsync.
Status SyncFile(const std::string& path, std::string_view what);

/// Flushes the entries of directory `dir` ("" is the working directory): a
/// file created or renamed in it is durable only once this runs after
/// that. `what` names the directory in errors ("op-log directory").
Status SyncDir(const std::string& dir, std::string_view what);

}  // namespace skl

#endif  // SKL_COMMON_FILE_BYTES_H_
