// Time-ordered event queue.  Events with equal timestamps are dispatched in
// insertion order, which makes every simulation bit-for-bit deterministic —
// a property the tests assert and the benchmark harness relies on.
//
// Performance shape (this is the simulator's innermost loop — several
// events per simulated message, hundreds of thousands per sweep):
//  * EventFn stores small trivially-copyable callables inline — coroutine
//    handles, `[&runtime, slot]` captures — so the hot path never touches
//    the heap.  Larger or non-trivially-copyable callables (std::function,
//    test lambdas capturing containers) transparently spill to the heap.
//  * The queue is a monotone radix heap over the timestamp's bit pattern.
//    Simulated time never runs backwards, so every pending key is >= the
//    key `last_` of the last popped event, and an entry lives in bucket
//    64 - countl_zero(key ^ last_): bucket 0 holds keys equal to last_,
//    bucket i > 0 keys whose highest bit differing from last_ is bit i-1.
//    Every key in a lower bucket is smaller than every key in a higher one.
//    Buckets are FIFO vectors of 16-byte (key, slot) entries; the callables
//    sit still in a slot pool.  A push is an append, and a pop reads bucket
//    0 through a head cursor; when bucket 0 runs dry, the lowest non-empty
//    bucket is redistributed around its minimum, which becomes last_.  Each
//    entry moves down at most 63 times over its life, and in practice once
//    or twice — no sift loops and none of their cache misses.
//  * Ties stay FIFO: equal keys always share a bucket, appends keep push
//    order, and a redistribution copies one bucket, in order, into buckets
//    that are empty at that moment.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace spb::sim {

/// A move-only callable with small-buffer storage tuned for event
/// callbacks.  Trivially copyable callables up to kInlineBytes live in the
/// event itself; anything else is boxed on the heap.
class EventFn {
 public:
  /// Inline capacity: fits a coroutine handle plus a couple of words,
  /// which covers every callback the runtime schedules.
  static constexpr std::size_t kInlineBytes = 32;

  EventFn() = default;
  /*implicit*/ EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-*)

  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_v<std::decay_t<F>&> &&
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  /*implicit*/ EventFn(F&& f) {  // NOLINT(google-explicit-*)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      cleanup_ = nullptr;
    } else {
      auto* boxed = new D(std::forward<F>(f));
      std::memcpy(storage_, &boxed, sizeof(boxed));
      invoke_ = [](void* p) {
        D* d;
        std::memcpy(&d, p, sizeof(d));
        (*d)();
      };
      cleanup_ = [](void* p) {
        D* d;
        std::memcpy(&d, p, sizeof(d));
        delete d;
      };
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { destroy(); }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void destroy() {
    if (cleanup_ != nullptr) cleanup_(storage_);
    invoke_ = nullptr;
    cleanup_ = nullptr;
  }

  void steal(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    cleanup_ = other.cleanup_;
    // Inline callables are trivially copyable by construction; heap-backed
    // ones store a raw pointer here.  Either way a byte copy relocates.
    std::memcpy(storage_, other.storage_, kInlineBytes);
    other.invoke_ = nullptr;
    other.cleanup_ = nullptr;
  }

  using Invoke = void (*)(void*);
  using Cleanup = void (*)(void*);
  Invoke invoke_ = nullptr;
  Cleanup cleanup_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/// A scheduled callback.
struct Event {
  SimTime time = 0;
  EventFn fn;
};

class EventQueue {
 public:
  /// Enqueues fn at absolute time t.  t must not precede the last popped
  /// event's time: the radix buckets are relative to it.
  void push(SimTime t, EventFn fn);

  /// Removes and returns the earliest event (FIFO among equal times).
  Event pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event without popping it (queue
  /// must be non-empty).  O(1) and const: it never moves the radix base,
  /// so a peek leaves later pushes free to land anywhere at or after the
  /// last popped time, including below the head it returned.
  SimTime top_time() const {
    return std::bit_cast<SimTime>(head0_ < buckets_[0].size()
                                      ? last_
                                      : min_[std::countr_zero(nonempty_)]);
  }

  /// Total number of events ever pushed.
  std::uint64_t pushed() const { return pushed_; }

  /// High-water mark of the queue depth (perf-harness metric: a proxy for
  /// how much concurrency the simulated algorithm exposes).
  std::size_t peak_size() const { return peak_; }

 private:
  /// Bucket entry.  `key` is the timestamp's bit pattern: for non-negative
  /// doubles unsigned bit-pattern order equals numeric order.
  struct Entry {
    std::uint64_t key;
    std::uint32_t slot;
  };

  static constexpr int kBuckets = 64;  // keys are sign-free: bit 63 is 0

  int bucket_of(std::uint64_t key) const {
    return 64 - std::countl_zero(key ^ last_);
  }
  void place(const Entry& e);
  void refill();

  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::array<std::uint64_t, kBuckets> min_{};  // per bucket 1..63
  std::uint64_t nonempty_ = 0;  // bit i: bucket i > 0 holds entries
  std::size_t head0_ = 0;       // next unread entry of bucket 0
  std::uint64_t last_ = 0;      // key of the last popped event
  std::vector<EventFn> slots_;  // parked callables, indexed by slot
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace spb::sim
