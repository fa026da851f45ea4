// Usable core count of the calling process.
//
// std::thread::hardware_concurrency() reports the machine's cores and
// ignores the CPU affinity mask, so under `taskset`, a cgroup cpuset or a
// container pinned to fewer cores it overstates how many threads can run
// at once.  Thread-pool sizing (the sharded engine's spawn cap, its auto
// mode, and the default sweep --jobs) uses this instead.
#pragma once

namespace spb {

/// Cores in this process's CPU affinity mask (sched_getaffinity); falls
/// back to std::thread::hardware_concurrency() where the mask is
/// unavailable.  Always >= 1.
int usable_cores();

}  // namespace spb
