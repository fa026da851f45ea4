// Deterministic conservative parallel discrete-event engine.
//
// The event space is partitioned into `shards` (one per machine region —
// see net/regions.h), each with its own EventQueue and clock.  Time
// advances in global conservative windows [T, T + W): T is the minimum
// shard head and W = window_us, the caller's lookahead — the minimum delay
// from any event to a cross-shard effect it can cause.  Within a window
// every shard drains its own queue independently — in (time, per-shard
// insertion) order, exactly like the serial Simulator — and may only
// schedule follow-up events into *itself*.  Cross-shard effects are
// deferred: the caller stages them during the window and applies them in
// the single-threaded `barrier` callback that runs between windows, in a
// canonical order of its own choosing.  The lookahead promise guarantees
// those barrier pushes land at or after the window end (asserted in at()).
//
// Determinism: shard count, window bounds and the barrier's canonical
// order are all pure functions of queue/staging state — never of the
// worker-thread count — and each shard's queue is only ever touched by one
// thread at a time (its drainer inside a window, the barrier between
// windows).  Results are therefore byte-identical for every `threads >=
// 1`; threads only changes wall-clock time.
//
// Scheduling is a plain fork-join pool: a window with at most one busy
// shard drains inline on the caller's thread with no locking; otherwise
// the caller wakes every pool worker, all of them (caller included) claim
// busy shards from a shared cursor, and the barrier runs only after every
// worker that joined the window has finished it.  The pool never
// outnumbers the usable cores (common/cores.h), so `threads == 1` or a
// single-core host never creates a std::thread at all.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace spb::sim {

/// Per-shard slice of the engine's run statistics.
struct ShardStats {
  std::uint64_t events = 0;
  std::size_t peak_queue_depth = 0;
  /// Windows in which this shard executed at least one event.
  std::uint64_t busy_windows = 0;
  /// Windows in which it executed nothing; busy + idle == total windows.
  std::uint64_t idle_windows = 0;
};

/// Whole-run statistics; all fields are thread-count independent.
struct EngineStats {
  std::uint64_t windows = 0;
  /// Shard-window slots that executed nothing: the sum of the per-shard
  /// idle counts.  The window-efficiency measure the perf harness exports.
  std::uint64_t idle_shard_windows = 0;
  std::vector<ShardStats> shards;
};

class ShardedEngine {
 public:
  /// `shards` >= 1 partitions the event space; `window_us` > 0 is the
  /// lookahead (the minimum delay from an event to any cross-shard effect
  /// it causes); `threads` caps the drain workers (clamped to [1, shards];
  /// only threads - 1 std::threads are ever created — the caller's thread
  /// drains too).
  ShardedEngine(int shards, double window_us, int threads);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  double window_us() const { return window_; }
  /// Effective worker count after clamping.
  int threads() const { return threads_; }

  /// Clock of the shard this thread is currently draining.  Only valid
  /// inside an event callback (current_shard() >= 0).
  SimTime now() const;

  /// Index of the shard currently draining on this thread, or -1 outside
  /// event callbacks (before run(), or in barrier context).
  int current_shard() const;

  /// Schedules fn at absolute time t on `shard`.  Inside an event
  /// callback only the executing shard may be targeted (cross-shard
  /// traffic goes through the barrier); in barrier or pre-run context any
  /// shard may be targeted, but t must not precede the end of the window
  /// just drained.
  void at(SimTime t, int shard, EventFn fn);

  using BarrierFn = std::function<void()>;

  /// Runs windows until every shard queue is empty, invoking `barrier`
  /// single-threadedly after each window (with all workers quiescent).
  /// One-shot.  Returns the maximum shard clock.  An exception thrown by
  /// an event aborts the run after its window completes; with several
  /// failing shards the lowest shard index wins (deterministic).
  SimTime run(const BarrierFn& barrier);

  /// Total events executed across shards.
  std::uint64_t events_executed() const;
  /// Maximum per-shard queue high-water mark.
  std::size_t peak_queue_depth() const;
  EngineStats stats() const;

 private:
  /// Padded to a cache line so concurrent drainers never false-share.
  struct alignas(64) Shard {
    EventQueue queue;
    SimTime now = 0;
    std::uint64_t executed = 0;
    std::uint64_t busy_windows = 0;
    std::uint64_t idle_windows = 0;
    std::exception_ptr error;
  };

  /// Plans the next window: its end, the busy list, stats.  Returns false
  /// when the run is complete.
  bool plan_window();
  void drain(int index);
  void claim_and_drain();
  void run_window();
  void worker_loop();
  void stop_pool();

  std::vector<Shard> shards_;
  double window_;
  int threads_;
  bool ran_ = false;
  /// End of the current window; barrier pushes must land at or after it.
  SimTime horizon_ = 0;
  /// Shards with drainable work this window, claimed via next_busy_.
  std::vector<int> busy_list_;
  std::uint64_t windows_ = 0;

  // Fork-join pool (only populated when more than one worker may run).
  // Each window bumps generation_, opens the window and wakes every
  // worker.  A worker joins (++active_) only while the window is open, and
  // leaves after its claim loop ends.  Once the caller has claimed past
  // the end of busy_list_ it closes the window and waits for active_ == 0:
  // every worker that joined has finished its drains, and a worker that
  // wakes late finds the window closed and cannot touch busy_list_ or the
  // queues while the barrier runs.  Waiting only for joined workers keeps
  // OS wake-up latency off the critical path.  The mutex hand-offs double
  // as the memory fences that publish queue contents between the barrier
  // and the drainers.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int active_ = 0;
  bool open_ = false;
  bool stop_ = false;
  /// Claim cursor into busy_list_; on its own cache line so drainers'
  /// fetch_adds never collide with the coordination fields above.
  alignas(64) std::atomic<int> next_busy_{0};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> pool_;
};

}  // namespace spb::sim
