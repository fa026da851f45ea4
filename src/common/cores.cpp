#include "common/cores.h"

#include <algorithm>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace spb {

int usable_cores() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace spb
