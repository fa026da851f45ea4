#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace spb::sim {

void EventQueue::place(const Entry& e) {
  const int b = bucket_of(e.key);
  buckets_[static_cast<std::size_t>(b)].push_back(e);
  if (b == 0) return;
  const std::uint64_t bit = std::uint64_t{1} << b;
  if ((nonempty_ & bit) == 0) {
    nonempty_ |= bit;
    min_[static_cast<std::size_t>(b)] = e.key;
  } else {
    min_[static_cast<std::size_t>(b)] =
        std::min(min_[static_cast<std::size_t>(b)], e.key);
  }
}

void EventQueue::push(SimTime t, EventFn fn) {
  SPB_REQUIRE(static_cast<bool>(fn), "cannot schedule a null event callback");
  SPB_REQUIRE(t >= 0, "cannot schedule an event at negative time " << t);
  // + 0.0 normalizes -0.0, whose bit pattern would order last.
  const auto key = std::bit_cast<std::uint64_t>(t + 0.0);
  SPB_REQUIRE(key >= last_, "cannot schedule an event at t="
                                << t << " before the last popped event at "
                                << std::bit_cast<SimTime>(last_));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  place(Entry{key, slot});
  ++pushed_;
  if (++size_ > peak_) peak_ = size_;
}

// Bucket 0 is dry: the lowest non-empty bucket holds the minimum, which
// becomes the new base.  Relative to it, every entry of that bucket lands
// in a strictly lower bucket — all of them empty now — in its old order.
void EventQueue::refill() {
  buckets_[0].clear();
  head0_ = 0;
  const int from = std::countr_zero(nonempty_);
  std::vector<Entry>& moving = buckets_[static_cast<std::size_t>(from)];
  nonempty_ &= ~(std::uint64_t{1} << from);
  last_ = min_[static_cast<std::size_t>(from)];
  for (const Entry& e : moving) place(e);
  moving.clear();
}

Event EventQueue::pop() {
  SPB_REQUIRE(size_ != 0, "pop() on an empty event queue");
  if (head0_ == buckets_[0].size()) refill();
  const std::uint32_t slot = buckets_[0][head0_++].slot;
  --size_;
  Event out{std::bit_cast<SimTime>(last_), std::move(slots_[slot])};
  free_slots_.push_back(slot);
  return out;
}

}  // namespace spb::sim
