// The workloads.  Each builds its inputs from the seed, measures for the
// requested seconds, checks the program's outputs, and fills a Report with
// the end-to-end metrics (trace off) or the per-layer metrics (trace on)
// named in catalog.h.  BENCHMARK.json lists the ones whose figures repeat
// on a shared host (sim_batch, sweep_all); README.md says why the others
// are run by hand.
#pragma once

#include <cstdint>

#include "measure.h"

namespace spbbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// CPUs this process may run on; no workload starts more threads.
  int nproc = 1;
};

Report run_sim_batch(const RunArgs& args);
Report run_sim_auto(const RunArgs& args);
Report run_sweep_all(const RunArgs& args);
Report run_serve_hot(const RunArgs& args);
Report run_serve_cold(const RunArgs& args);

/// Prints the sim_batch fingerprints of a seed as C++ table rows (used to
/// refresh the pinned reference table in sim_batch.cpp).
void print_sim_batch_pins(std::uint64_t seed);

}  // namespace spbbench
