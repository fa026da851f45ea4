// Deterministic parallel sweep execution.
//
// Every simulation in spb is a self-contained sim::Simulator, so sweep
// points (figure series entries, analyzer combinations) are independent
// and embarrassingly parallel.  SweepRunner fans task(i) out over a small
// thread pool; determinism is preserved by construction because each task
// writes only into its own index-addressed result slot and callers emit
// results in input order afterwards.  A parallel sweep is therefore
// byte-identical to a serial one — tests/bench/sweep_determinism_test.cpp
// holds this to the letter.
#pragma once

#include <cstddef>
#include <functional>

namespace spb::bench {

class SweepRunner {
 public:
  /// jobs <= 1 runs tasks inline on the calling thread (no pool, no
  /// nondeterminism to even worry about); jobs > 1 uses that many worker
  /// threads.
  explicit SweepRunner(int jobs);

  int jobs() const { return jobs_; }

  /// Runs task(0) .. task(count - 1), each exactly once, and returns when
  /// all have finished.  Tasks are claimed dynamically (an atomic cursor),
  /// so slow combos don't stall a statically assigned stripe.  If any task
  /// throws, the first exception (in completion order) is rethrown after
  /// every worker has drained; remaining tasks still run.
  void run(std::size_t count,
           const std::function<void(std::size_t)>& task) const;

  /// The usable core count (common/cores.h): the default --jobs.
  static int hardware_jobs();

 private:
  int jobs_;
};

}  // namespace spb::bench
