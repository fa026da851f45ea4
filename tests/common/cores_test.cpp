// usable_cores() follows the CPU affinity mask, not the machine's core
// count (what `taskset` or a cpuset restricts a process to).
#include <gtest/gtest.h>

#include <thread>

#include "common/cores.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace spb {
namespace {

TEST(UsableCores, AtLeastOne) { EXPECT_GE(usable_cores(), 1); }

#ifdef __linux__
TEST(UsableCores, FollowsTheAffinityMask) {
  // Pin a fresh thread (the mask is per thread) to the first CPU it may
  // run on; hardware_concurrency() would still report every core.
  int seen = 0;
  std::thread t([&seen]() {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    int first = 0;
    while (!CPU_ISSET(first, &set)) ++first;
    CPU_ZERO(&set);
    CPU_SET(first, &set);
    ASSERT_EQ(sched_setaffinity(0, sizeof set, &set), 0);
    seen = usable_cores();
  });
  t.join();
  EXPECT_EQ(seen, 1);
}
#endif

}  // namespace
}  // namespace spb
