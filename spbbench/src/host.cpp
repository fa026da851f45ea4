#include "host.h"

#include <sched.h>

#include <fstream>
#include <sstream>

namespace spbbench {

namespace {

std::string trim(std::string s) {
  const auto b = s.find_first_not_of(" \t");
  const auto e = s.find_last_not_of(" \t\r\n");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) h.nproc = CPU_COUNT(&set);
  if (h.nproc < 1) h.nproc = 1;

  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      h.cpu = trim(line.substr(line.find(':') + 1));
      break;
    }
  }
  if (h.cpu.empty()) h.cpu = "unknown";

  h.build_type = SPBBENCH_BUILD_TYPE;
  h.compiler = __VERSION__;
  h.flags = trim(SPBBENCH_CXX_FLAGS);
  h.sanitize = SPBBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (h.sanitize.empty()) h.sanitize = "address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (h.sanitize.empty()) h.sanitize = "thread";
#endif
  return h;
}

std::string build_refusal(const HostInfo& h) {
  if (h.build_type != "Release")
    return "build type is '" + h.build_type + "', not Release";
  if (!h.sanitize.empty()) return "sanitizer build (" + h.sanitize + ")";
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "built without optimization or with assertions on";
#else
  return "";
#endif
}

std::string host_json(const HostInfo& h) {
  std::ostringstream os;
  os << "{\"nproc\": " << h.nproc << ", \"cpu\": " << json_string(h.cpu)
     << ", \"build_type\": " << json_string(h.build_type)
     << ", \"compiler\": " << json_string(h.compiler)
     << ", \"flags\": " << json_string(h.flags)
     << ", \"sanitize\": " << json_string(h.sanitize) << "}";
  return os.str();
}

}  // namespace spbbench
