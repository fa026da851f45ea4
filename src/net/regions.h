// Region partition for the sharded simulation engine (see sim/sharded.h).
//
// A region is a contiguous range of physical node ids — contiguous because
// every topology here numbers nodes so that neighbours in the innermost
// dimension get adjacent ids, which keeps most short routes (and therefore
// most simulated traffic) region-local.  The partition is a pure function
// of the topology's node count: it must not depend on the worker-thread
// count, or results would stop being byte-identical across SPB_SIM_THREADS
// settings.  Ranks inherit the region of the node they are mapped to, so a
// T3D-style random scatter simply spreads the ranks over the regions.
#pragma once

#include <algorithm>

#include "common/types.h"

namespace spb::net {

/// Number of regions the sharded engine partitions `node_count` nodes
/// into: one region per 32 nodes, clamped to [2, 16].  Small machines
/// still get two shards (the engine's minimum interesting shape); huge
/// ones cap at 16 so per-shard queues stay deep enough to amortize the
/// window barrier.
inline int region_count(int node_count) {
  return std::clamp(node_count / 32, 2, 16);
}

/// Region of node `n` under the balanced contiguous partition of
/// `node_count` nodes into `regions` regions: region r covers ids
/// [r*node_count/regions, (r+1)*node_count/regions).
inline int region_of_node(NodeId n, int node_count, int regions) {
  return static_cast<int>((static_cast<long long>(n) * regions) /
                          node_count);
}

}  // namespace spb::net
