// Host and build tags attached to every result, and the guard that keeps
// numbers from unoptimized or sanitizer builds out of the record.
#pragma once

#include <string>

namespace spbbench {

struct HostInfo {
  int nproc = 1;           // CPUs in this process's affinity mask
  std::string cpu;         // /proc/cpuinfo "model name"
  std::string build_type;  // CMAKE_BUILD_TYPE of this binary
  std::string compiler;
  std::string flags;       // release compile flags
  std::string sanitize;    // -fsanitize= list, empty when none
};

HostInfo host_info();

/// Empty when the build may report numbers; otherwise why it may not.
std::string build_refusal(const HostInfo& h);

/// One-line JSON rendering of the tags.
std::string host_json(const HostInfo& h);

}  // namespace spbbench
