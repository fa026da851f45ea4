#include "sim/sharded.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/cores.h"

namespace spb::sim {

namespace {

/// Which engine/shard this thread is currently draining.  Thread-local by
/// design: each drain worker needs its own cursor, and the serial Simulator
/// path never touches it.
struct RunningShard {
  ShardedEngine* engine = nullptr;
  SimTime now = 0;
  int index = -1;
};
// Each worker owns its own copy, so there is no shared mutable state here.
// NOLINTNEXTLINE(spb-mutable-global): per-thread drain cursor by design
thread_local RunningShard tls_running;

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::infinity();

}  // namespace

ShardedEngine::ShardedEngine(int shards, double window_us, int threads)
    : shards_(static_cast<std::size_t>(std::max(shards, 1))),
      window_(window_us),
      threads_(std::clamp(threads, 1, std::max(shards, 1))) {
  SPB_REQUIRE(shards >= 1, "ShardedEngine needs at least one shard");
  SPB_REQUIRE(window_us > 0,
              "ShardedEngine needs a positive lookahead window (got "
                  << window_us << " us); zero lookahead means serial");
  busy_list_.reserve(shards_.size());
}

ShardedEngine::~ShardedEngine() { stop_pool(); }

SimTime ShardedEngine::now() const {
  SPB_CHECK_MSG(tls_running.engine == this && tls_running.index >= 0,
                "ShardedEngine::now() outside an event callback");
  return tls_running.now;
}

int ShardedEngine::current_shard() const {
  return tls_running.engine == this ? tls_running.index : -1;
}

void ShardedEngine::at(SimTime t, int shard, EventFn fn) {
  SPB_REQUIRE(shard >= 0 && shard < shard_count(),
              "shard " << shard << " out of range");
  if (tls_running.engine == this && tls_running.index >= 0) {
    // Drain context: a shard may only extend its own timeline.
    SPB_REQUIRE(tls_running.index == shard,
                "cross-shard push (from shard "
                    << tls_running.index << " to " << shard
                    << ") inside a window — cross-shard events must be "
                       "staged and applied at the barrier");
    SPB_REQUIRE(t >= tls_running.now, "cannot schedule an event in the past "
                                          << "(t=" << t << ", now="
                                          << tls_running.now << ")");
  } else {
    // Barrier (or pre-run) context: any shard, but never inside the window
    // just drained — that is exactly the conservative-window contract.
    SPB_REQUIRE(t >= horizon_, "barrier push at t="
                                   << t << " precedes the window end "
                                   << horizon_);
  }
  shards_[static_cast<std::size_t>(shard)].queue.push(t, std::move(fn));
}

bool ShardedEngine::plan_window() {
  // The window [T, T + W) starts at the earliest pending event anywhere; a
  // pure function of queue state, so identical for every worker count.
  SimTime start = kNoEvent;
  for (const Shard& s : shards_)
    if (!s.queue.empty()) start = std::min(start, s.queue.top_time());
  if (start == kNoEvent) return false;
  horizon_ = start + window_;
  ++windows_;
  busy_list_.clear();
  for (int i = 0; i < shard_count(); ++i) {
    Shard& s = shards_[static_cast<std::size_t>(i)];
    if (!s.queue.empty() && s.queue.top_time() < horizon_) {
      busy_list_.push_back(i);
      ++s.busy_windows;
    } else {
      ++s.idle_windows;
    }
  }
  return true;
}

void ShardedEngine::drain(int index) {
  Shard& s = shards_[static_cast<std::size_t>(index)];
  const SimTime end = horizon_;
  tls_running = RunningShard{this, s.now, index};
  std::uint64_t n = 0;
  try {
    while (!s.queue.empty() && s.queue.top_time() < end) {
      Event e = s.queue.pop();
      s.now = e.time;
      tls_running.now = e.time;
      ++n;
      e.fn();
    }
  } catch (...) {
    if (s.error == nullptr) s.error = std::current_exception();
  }
  tls_running = RunningShard{};
  s.executed += n;
}

void ShardedEngine::claim_and_drain() {
  const int busy = static_cast<int>(busy_list_.size());
  for (;;) {
    const int i = next_busy_.fetch_add(1, std::memory_order_relaxed);
    if (i >= busy) return;
    drain(busy_list_[static_cast<std::size_t>(i)]);
  }
}

void ShardedEngine::run_window() {
  if (busy_list_.size() <= 1 || pool_.empty()) {
    // Inline mode: drain the busy shards in index order on this thread.
    for (const int i : busy_list_) drain(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    next_busy_.store(0, std::memory_order_relaxed);
    open_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  claim_and_drain();
  // Every busy shard is claimed.  Closing the window under the mutex stops
  // any worker that has not joined yet from joining it late; the ones that
  // did join are counted in active_, and each leaves only after its claim
  // loop ends.
  std::unique_lock<std::mutex> lk(mu_);
  open_ = false;
  cv_done_.wait(lk, [this] { return active_ == 0; });
}

void ShardedEngine::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (!open_) continue;
      ++active_;
    }
    claim_and_drain();
    bool last = false;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      last = --active_ == 0;
    }
    if (last) cv_done_.notify_one();
  }
}

void ShardedEngine::stop_pool() {
  if (pool_.empty()) return;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

SimTime ShardedEngine::run(const BarrierFn& barrier) {
  SPB_REQUIRE(!ran_, "ShardedEngine::run() is one-shot");
  ran_ = true;
  // Never more drainers than usable cores: an oversubscribed pool only
  // adds wakeups.  Pool size is wall-clock policy and cannot affect
  // results.
  const int spawn = std::min(threads_, usable_cores()) - 1;
  if (spawn > 0) {
    pool_.reserve(static_cast<std::size_t>(spawn));
    for (int i = 0; i < spawn; ++i)
      pool_.emplace_back([this] { worker_loop(); });
  }
  while (plan_window()) {
    run_window();
    for (const Shard& s : shards_) {
      if (s.error == nullptr) continue;
      stop_pool();
      std::rethrow_exception(s.error);
    }
    if (barrier) barrier();
  }
  stop_pool();
  SimTime final_time = 0;
  for (const Shard& s : shards_) final_time = std::max(final_time, s.now);
  return final_time;
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.executed;
  return total;
}

std::size_t ShardedEngine::peak_queue_depth() const {
  std::size_t peak = 0;
  for (const Shard& s : shards_) peak = std::max(peak, s.queue.peak_size());
  return peak;
}

EngineStats ShardedEngine::stats() const {
  EngineStats out;
  out.windows = windows_;
  std::uint64_t busy = 0;
  std::uint64_t idle = 0;
  out.shards.reserve(shards_.size());
  for (const Shard& s : shards_) {
    out.shards.push_back(ShardStats{s.executed, s.queue.peak_size(),
                                    s.busy_windows, s.idle_windows});
    busy += s.busy_windows;
    idle += s.idle_windows;
  }
  // Idle slots are counted directly per shard (never derived by
  // subtraction, which would wrap if a count were ever lost); the
  // busy/idle split must still tile the windows x shards grid exactly.
  SPB_REQUIRE(busy + idle ==
                  windows_ * static_cast<std::uint64_t>(shards_.size()),
              "shard busy/idle window counts (" << busy << " + " << idle
                                                << ") do not tile "
                                                << windows_ << " x "
                                                << shards_.size()
                                                << " shard-windows");
  out.idle_shard_windows = idle;
  return out;
}

}  // namespace spb::sim
