#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace spb::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) q.push(7.0, [&, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MixedTimesStableWithinTies) {
  EventQueue q;
  Rng rng(31);
  std::vector<std::pair<double, int>> popped;
  int seq = 0;
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>(rng.next_below(10));
    const int id = seq++;
    q.push(t, [&popped, t, id] { popped.push_back({t, id}); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(popped.size(), 500u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1].first, popped[i].first);
    if (popped[i - 1].first == popped[i].first) {
      EXPECT_LT(popped[i - 1].second, popped[i].second);
    }
  }
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), CheckError);
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(0.0, nullptr), CheckError);
}

TEST(EventQueue, CountsPushes) {
  EventQueue q;
  EXPECT_EQ(q.pushed(), 0u);
  q.push(0.0, [] {});
  q.push(1.0, [] {});
  EXPECT_EQ(q.pushed(), 2u);
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.pushed(), 2u);  // pops do not change the push count
  EXPECT_EQ(q.size(), 1u);
}

// The queue must pop exactly what a stable sort by time would: the
// reference is a set ordered by (time, push index).  Pushes are monotone —
// never below the last popped time — as in the simulator, and the times
// mix runs of equal stamps, tiny steps and jumps across many binades, so
// entries move between radix buckets in every pattern.
void check_against_reference(std::uint64_t seed, int depth, double base) {
  EventQueue q;
  Rng rng(seed);
  std::set<std::pair<double, int>> ref;
  std::vector<std::pair<double, int>> popped;
  double now = base;  // the clock before the first pop
  int next_id = 0;
  const auto next_time = [&]() -> double {
    switch (rng.next_below(6)) {
      case 0: return now;                              // tie with the clock
      case 1: return ref.empty() ? now : ref.rbegin()->first;  // tie, pending
      case 2: return now + rng.next_double() * 1e-9;
      case 3: return now + static_cast<double>(rng.next_below(4));
      case 4: return now + rng.next_double() * 1e3;
      default: return now + rng.next_double() * 1e6;
    }
  };
  const auto push = [&] {
    const double t = next_time();
    const int id = next_id++;
    q.push(t, [&popped, t, id] { popped.push_back({t, id}); });
    ref.insert({t, id});
  };
  const auto pop = [&] {
    ASSERT_EQ(q.size(), ref.size());
    EXPECT_EQ(q.top_time(), ref.begin()->first);
    Event e = q.pop();
    const std::size_t n = popped.size();
    e.fn();
    ASSERT_EQ(popped.size(), n + 1);
    ASSERT_EQ(popped.back(), *ref.begin())
        << "seed " << seed << " depth " << depth << " pop " << n;
    EXPECT_EQ(e.time, popped.back().first);
    now = e.time;
    ref.erase(ref.begin());
  };
  for (int i = 0; i < depth; ++i) push();
  for (int i = 0; i < 4 * depth + 64; ++i) {
    // Hover around `depth`, occasionally draining a burst.
    if (!ref.empty() && (rng.next_below(2) == 0 || ref.size() > 2u * depth))
      pop();
    else
      push();
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!ref.empty()) {
    pop();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomizedMonotoneMatchesStableSort) {
  std::uint64_t seed = 1;
  for (const int depth : {1, 2, 3, 7, 64, 513, 4096})
    for (const double base : {0.0, 1e-3, 1.0, 1e6}) {
      check_against_reference(seed++, depth, base);
      if (HasFatalFailure()) return;
    }
}

TEST(EventQueue, TopTimeDoesNotMoveTheBase) {
  // Peek at the head, then push below it: top_time() must be a pure read
  // that leaves later pushes free to land anywhere at or after the last
  // popped time.
  EventQueue q;
  std::vector<int> order;
  q.push(5.0, [&] { order.push_back(5); });
  q.push(100.0, [&] { order.push_back(100); });
  Event first = q.pop();
  first.fn();
  EXPECT_EQ(first.time, 5.0);
  EXPECT_EQ(q.top_time(), 100.0);
  q.push(50.0, [&] { order.push_back(50); });
  EXPECT_EQ(q.top_time(), 50.0);
  Event second = q.pop();
  second.fn();
  EXPECT_EQ(second.time, 50.0);
  q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{5, 50, 100}));
}

TEST(EventQueue, PushBelowTheLastPopRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, [] {}), CheckError);
  q.push(10.0, [] {});
  q.push(20.0, [] {});
  (void)q.pop();
  EXPECT_THROW(q.push(9.5, [] {}), CheckError);
  EXPECT_NO_THROW(q.push(10.0, [] {}));  // equal to the last pop is fine
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, NegativeZeroIsZero) {
  EventQueue q;
  std::vector<int> order;
  q.push(0.0, [&] { order.push_back(0); });
  q.push(-0.0, [&] { order.push_back(1); });  // ties with +0.0, FIFO
  q.push(1e-300, [&] { order.push_back(2); });
  EXPECT_EQ(q.top_time(), 0.0);
  Event e = q.pop();
  EXPECT_FALSE(std::signbit(e.time));
  e.fn();
  q.push(-0.0, [&] { order.push_back(3); });  // not below the last pop
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
}

}  // namespace
}  // namespace spb::sim
