// ShardedEngine: windowed drains, barrier staging, lookahead contract,
// determinism across worker-thread counts, error propagation, and the
// direct per-shard busy/idle accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "sim/sharded.h"

namespace spb::sim {
namespace {

TEST(ShardedEngine, DrainsEachShardInTimeOrder) {
  ShardedEngine eng(2, 10.0, 1);
  std::vector<std::string> log;
  eng.at(5.0, 0, [&log]() { log.push_back("a@5"); });
  eng.at(1.0, 0, [&log]() { log.push_back("a@1"); });
  eng.at(3.0, 1, [&log]() { log.push_back("b@3"); });
  const SimTime end = eng.run({});
  // Within a shard strictly time-ordered; shards drain independently but
  // inline mode visits them in index order per window.
  EXPECT_EQ(log, (std::vector<std::string>{"a@1", "a@5", "b@3"}));
  EXPECT_DOUBLE_EQ(end, 5.0);
  EXPECT_EQ(eng.events_executed(), 3u);
}

TEST(ShardedEngine, EqualTimesKeepInsertionOrderWithinShard) {
  ShardedEngine eng(1, 100.0, 1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) eng.at(1.0, 0, [&order, i]() { order.push_back(i); });
  eng.run({});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ShardedEngine, InWindowEventsMaySpawnIntoOwnShardOnly) {
  ShardedEngine eng(2, 10.0, 1);
  std::vector<std::string> log;
  eng.at(0.0, 0, [&eng, &log]() {
    eng.at(2.0, 0, [&log]() { log.push_back("child"); });
    log.push_back("parent");
  });
  eng.run({});
  EXPECT_EQ(log, (std::vector<std::string>{"parent", "child"}));
}

TEST(ShardedEngine, CrossShardPushInsideWindowIsRejected) {
  ShardedEngine eng(2, 10.0, 1);
  bool threw = false;
  eng.at(0.0, 0, [&eng, &threw]() {
    try {
      eng.at(5.0, 1, []() {});
    } catch (const CheckError&) {
      threw = true;
    }
  });
  eng.run({});
  EXPECT_TRUE(threw);
}

TEST(ShardedEngine, BarrierRunsBetweenWindowsAndMayPushCrossShard) {
  // One event at t=0 on shard 0; the first barrier (horizon 5) stages a
  // shard-1 event at exactly the horizon — the earliest legal time.
  ShardedEngine eng(2, 5.0, 1);
  std::vector<std::string> log;
  eng.at(0.0, 0, [&log]() { log.push_back("seed"); });
  bool staged = false;
  eng.run([&]() {
    if (!staged) {
      staged = true;
      eng.at(5.0, 1, [&log]() { log.push_back("staged"); });
    }
  });
  EXPECT_EQ(log, (std::vector<std::string>{"seed", "staged"}));
  EXPECT_EQ(eng.stats().windows, 2u);
}

TEST(ShardedEngine, BarrierPushBelowHorizonIsRejected) {
  ShardedEngine eng(2, 5.0, 1);
  eng.at(0.0, 0, []() {});
  bool threw = false;
  bool first = true;
  eng.run([&]() {
    if (!first) return;
    first = false;
    try {
      eng.at(4.999, 1, []() {});  // window was [0, 5): too early
    } catch (const CheckError&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(ShardedEngine, IdenticalResultsAcrossThreadCounts) {
  // Same event program on 1, 2 and 8 workers; per-shard execution logs
  // must match exactly (the engine's determinism contract).
  auto trace_of = [](int threads) {
    ShardedEngine eng(4, 7.0, threads);
    std::vector<std::vector<double>> per_shard(4);
    for (int s = 0; s < 4; ++s) {
      for (int k = 0; k < 50; ++k) {
        const double t = 0.5 * k + 0.25 * s;
        eng.at(t, s, [&per_shard, s, t]() {
          per_shard[static_cast<std::size_t>(s)].push_back(t);
        });
      }
    }
    eng.run({});
    return per_shard;
  };
  const auto t1 = trace_of(1);
  EXPECT_EQ(t1, trace_of(2));
  EXPECT_EQ(t1, trace_of(8));
}

TEST(ShardedEngine, StatsCountBusyAndIdleShardWindows) {
  ShardedEngine eng(2, 10.0, 1);
  eng.at(0.0, 0, []() {});
  eng.at(1.0, 0, []() {});  // same window, same shard; shard 1 idles
  eng.run({});
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.windows, 1u);
  EXPECT_EQ(st.idle_shard_windows, 1u);
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_EQ(st.shards[0].events, 2u);
  EXPECT_EQ(st.shards[0].busy_windows, 1u);
  EXPECT_EQ(st.shards[1].events, 0u);
}

TEST(ShardedEngine, EventExceptionAbortsTheRun) {
  ShardedEngine eng(2, 10.0, 2);
  eng.at(0.0, 1, []() { throw std::runtime_error("boom"); });
  EXPECT_THROW(eng.run({}), std::runtime_error);
}

TEST(ShardedEngine, RunIsOneShot) {
  ShardedEngine eng(1, 1.0, 1);
  eng.run({});
  EXPECT_THROW(eng.run({}), CheckError);
}

TEST(ShardedEngine, RejectsNonPositiveWindow) {
  EXPECT_THROW(ShardedEngine(2, 0.0, 1), CheckError);
  EXPECT_THROW(ShardedEngine(2, -1.0, 1), CheckError);
}

TEST(ShardedEngine, ThreadsClampToShardCount) {
  const ShardedEngine eng(4, 1.0, 64);
  EXPECT_EQ(eng.threads(), 4);
}

TEST(ShardedEngine, PerShardIdleCountsTileEveryWindow) {
  // Shard 0 is busy in both windows, shard 1 only in the first; the
  // reported idle count is the direct per-shard sum (the PR 10 fix — the
  // old derived `windows * shards - busy` could underflow).
  ShardedEngine eng(2, 5.0, 1);
  eng.at(0.0, 0, []() {});
  eng.at(0.0, 1, []() {});
  eng.at(7.0, 0, []() {});
  eng.run({});
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.windows, 2u);
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_EQ(st.shards[0].busy_windows, 2u);
  EXPECT_EQ(st.shards[0].idle_windows, 0u);
  EXPECT_EQ(st.shards[1].busy_windows, 1u);
  EXPECT_EQ(st.shards[1].idle_windows, 1u);
  EXPECT_EQ(st.idle_shard_windows, 1u);
  for (const ShardStats& s : st.shards)
    EXPECT_EQ(s.busy_windows + s.idle_windows, st.windows);
}

TEST(ShardedEngine, BarrierTrafficIdenticalAcrossThreadCounts) {
  // The thread-count determinism contract with cross-shard traffic in the
  // mix: periodic events stage a transfer into their own shard's list (the
  // runtime's pattern — no shared writes inside a window), and the barrier
  // lands each one a full window later on the next shard.
  struct Xfer {
    double initiate;
    int to;
  };
  const auto trace_of = [](int threads) {
    constexpr int kShards = 3;
    constexpr double kWindow = 4.0;
    ShardedEngine eng(kShards, kWindow, threads);
    std::vector<std::vector<double>> per_shard(kShards);
    std::vector<std::vector<Xfer>> staged(kShards);
    for (int s = 0; s < kShards; ++s) {
      for (int k = 0; k < 40; ++k) {
        const double t = 1.5 * k + 0.5 * s;
        const bool stages = k % 7 == 0;
        eng.at(t, s, [&per_shard, &staged, s, t, stages]() {
          per_shard[static_cast<std::size_t>(s)].push_back(t);
          if (stages)
            staged[static_cast<std::size_t>(s)].push_back(
                {t, (s + 1) % kShards});
        });
      }
    }
    eng.run([&]() {
      for (std::vector<Xfer>& v : staged) {
        for (const Xfer& x : v) {
          const double land = x.initiate + kWindow;
          eng.at(land, x.to, [&per_shard, x, land]() {
            per_shard[static_cast<std::size_t>(x.to)].push_back(-land);
          });
        }
        v.clear();
      }
    });
    return per_shard;
  };
  const auto t1 = trace_of(1);
  EXPECT_EQ(t1[1].size(), 40u + 6u);  // 6 of shard 0's events staged
  EXPECT_EQ(t1, trace_of(2));
  EXPECT_EQ(t1, trace_of(3));
}

}  // namespace
}  // namespace spb::sim
