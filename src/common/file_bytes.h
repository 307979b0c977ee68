// Whole-file reads for the durable formats (snapshots, op-logs): the file is
// sized once and read with one bulk read, never byte by byte.
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

}  // namespace skl

#endif  // SKL_COMMON_FILE_BYTES_H_
