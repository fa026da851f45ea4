#include "analyze/checks.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analyze/record.h"
#include "common/check.h"
#include "machine/config.h"
#include "mp/mailbox.h"
#include "mp/schedule.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

// Synthetic schedules built op by op exercise each static check in
// isolation; one recorded real run pins the clean path.

namespace spb::analyze {
namespace {

using mp::ScheduleOp;

ScheduleOp send_op(int id, Rank rank, Rank dst, int tag, Bytes wire,
                   std::vector<Rank> chunks, Bytes payload) {
  ScheduleOp op;
  op.kind = ScheduleOp::Kind::kSend;
  op.id = id;
  op.rank = rank;
  op.peer = dst;
  op.tag = tag;
  op.wire_bytes = wire;
  op.chunk_sources = std::move(chunks);
  op.payload_bytes = payload;
  return op;
}

ScheduleOp recv_op(int id, Rank rank, Rank src, int tag) {
  ScheduleOp op;
  op.kind = ScheduleOp::Kind::kRecv;
  op.id = id;
  op.rank = rank;
  op.peer = src;
  op.tag = tag;
  return op;
}

stop::Problem two_rank_problem(std::vector<Rank> sources = {0, 1}) {
  return stop::make_problem(machine::paragon(1, 2), std::move(sources),
                            1000);
}

bool has_kind(const AnalysisReport& r, Violation::Kind k) {
  for (const Violation& v : r.violations)
    if (v.kind == k) return true;
  return false;
}

const Violation& first_of_kind(const AnalysisReport& r, Violation::Kind k) {
  for (const Violation& v : r.violations)
    if (v.kind == k) return v;
  throw std::runtime_error("kind not present");
}

TEST(AnalyzeChecks, CleanPairwiseExchangeHasNoViolations) {
  // Eager-send-then-receive exchange: the canonical deadlock-free pattern.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000),
          send_op(1, 1, 0, 0, 1020, {1}, 1000), recv_op(2, 0, 1, 0),
          recv_op(3, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.quality.critical_depth, 1);
  EXPECT_EQ(report.quality.total_payload_bytes, 2000u);
  EXPECT_EQ(report.quality.round_lower_bound, 0);  // s == p
}

TEST(AnalyzeChecks, UnmatchedRecvReportsHang) {
  const mp::Schedule sched =
      mp::Schedule::from_ops(2, {recv_op(0, 0, 1, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kUnmatchedRecv));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kUnmatchedRecv);
  EXPECT_EQ(v.rank, 0);
  EXPECT_EQ(v.step, 0);
  EXPECT_NE(v.message.find("hangs"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("rank 0"), std::string::npos) << v.message;
}

TEST(AnalyzeChecks, UnreceivedSendReportsLostTraffic) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kUnreceivedSend));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kUnreceivedSend);
  EXPECT_EQ(v.rank, 0);
  EXPECT_NE(v.message.find("no receive on rank 1"), std::string::npos)
      << v.message;
  // The chunk never propagates, so coverage breaks downstream too.
  EXPECT_TRUE(has_kind(report, Violation::Kind::kCoverage));
}

TEST(AnalyzeChecks, SizeMismatchBetweenMatchedPair) {
  ScheduleOp recv = recv_op(1, 1, 0, 0);
  recv.completed = true;
  recv.match = 0;
  recv.wire_bytes = 999;  // recorded arrival disagrees with the send
  recv.chunk_sources = {0};
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kSizeMismatch));
}

TEST(AnalyzeChecks, RecvBeforeSendCycleIsReported) {
  // Both ranks receive before sending: a classic deadlock under
  // synchronous matching.  The wait-for graph has a 4-op cycle.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {recv_op(0, 0, 1, 0), recv_op(1, 1, 0, 0),
          send_op(2, 0, 1, 0, 1020, {0}, 1000),
          send_op(3, 1, 0, 0, 1020, {1}, 1000)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kDeadlockCycle));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kDeadlockCycle);
  EXPECT_NE(v.message.find("wait-for cycle of 4 op(s)"), std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("rank 0"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("rank 1"), std::string::npos) << v.message;
}

TEST(AnalyzeChecks, DuplicateChunkInOneMessage) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 2040, {0, 0}, 2000), recv_op(1, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kChunkIntegrity));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kChunkIntegrity);
  EXPECT_NE(v.message.find("source 0"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("more than once"), std::string::npos)
      << v.message;
}

TEST(AnalyzeChecks, ChunkOfNonSourceRankFlagged) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {7}, 1000), recv_op(1, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kUnknownSource));
}

TEST(AnalyzeChecks, SendingAChunkNeverHeldIsProvenanceViolation) {
  // Rank 0 ships source 1's chunk without ever receiving it.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {1}, 1000), recv_op(1, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kProvenance));
  const Violation& v = first_of_kind(report, Violation::Kind::kProvenance);
  EXPECT_NE(v.message.find("neither originated nor received"),
            std::string::npos)
      << v.message;
}

TEST(AnalyzeChecks, RedundantDeliveryIsMetricNotViolation) {
  // Rank 1 echoes source 0's chunk back to rank 0, which already holds
  // it — deliberate redundancy (PersAlltoAll-style), counted not flagged.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0),
          send_op(2, 1, 0, 0, 2040, {1, 0}, 2000), recv_op(3, 0, 1, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.quality.redundant_chunk_deliveries, 1);
  EXPECT_EQ(report.quality.redundant_payload_bytes, 1000u);
}

TEST(AnalyzeChecks, QualityGatesTripOnlyWhenEnabled) {
  // 1-to-2 broadcast done three times over: wasteful but correct.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0),
          send_op(2, 0, 1, 0, 1020, {0}, 1000), recv_op(3, 1, 0, 0),
          send_op(4, 0, 1, 0, 1020, {0}, 1000), recv_op(5, 1, 0, 0)});
  const stop::Problem pb = two_rank_problem({0});
  EXPECT_TRUE(analyze_schedule(sched, pb).ok());

  AnalysisOptions gates;
  gates.max_step_slack = 1.0;    // 3 steps vs. lower bound 1 round
  gates.max_volume_slack = 2.0;  // 3000B vs. lower bound 500B
  const AnalysisReport gated = analyze_schedule(sched, pb, gates);
  int quality = 0;
  for (const Violation& v : gated.violations)
    if (v.kind == Violation::Kind::kQuality) ++quality;
  EXPECT_EQ(quality, 2) << gated.to_string();
}

TEST(AnalyzeChecks, RecordedTwoStepRunPassesAllChecks) {
  const stop::AlgorithmPtr alg = stop::find_algorithm("2-Step");
  const stop::Problem pb = stop::make_problem(
      machine::paragon(4, 4), dist::Kind::kRow, 4, 2048);
  const RecordedRun run = record_run(*alg, pb);
  ASSERT_TRUE(run.completed) << run.failure;
  const AnalysisReport report = analyze_schedule(run.schedule, pb);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // p = 16, s = 4: no schedule can finish in fewer than 2 rounds.
  EXPECT_EQ(report.quality.round_lower_bound, 2);
  EXPECT_GE(report.quality.critical_depth,
            report.quality.round_lower_bound);
  EXPECT_GT(report.quality.total_payload_bytes, 0u);
}

// The matching tests below give every send a distinct wire size and
// every receive the size of the send it must match, marked completed:
// any other pick surfaces as a size mismatch.
ScheduleOp completed_recv(int id, Rank rank, Rank src, int tag, int hint,
                          Bytes wire) {
  ScheduleOp op = recv_op(id, rank, src, tag);
  op.completed = true;
  op.match = hint;
  op.wire_bytes = wire;
  return op;
}

bool matching_ok(const AnalysisReport& r) {
  return !has_kind(r, Violation::Kind::kSizeMismatch) &&
         !has_kind(r, Violation::Kind::kUnmatchedRecv) &&
         !has_kind(r, Violation::Kind::kUnreceivedSend);
}

TEST(AnalyzeChecks, HintTakenFromMidGroupLeavesTheRestInFifoOrder) {
  // Three sends in one (src 0, tag 0) group.  The first receive's hint
  // takes the middle one; the later hint-less receives get the oldest
  // remaining send, then the newest.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 100, {0}, 1000),
          send_op(1, 0, 1, 0, 200, {0}, 1000),
          send_op(2, 0, 1, 0, 300, {0}, 1000),
          completed_recv(3, 1, 0, 0, 1, 200),
          completed_recv(4, 1, 0, 0, -1, 100),
          completed_recv(5, 1, 0, 0, -1, 300)});
  const AnalysisReport report =
      analyze_schedule(sched, two_rank_problem({0}));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AnalyzeChecks, WildcardWithUnusableHintTakesEarliestHeadAcrossGroups) {
  // Rank 2 receives from groups (0, tag 0), (0, tag 3), (1, tag 0) and
  // (1, tag 1).  Group (1, 1) sorts last but holds the earliest send.
  const stop::Problem pb =
      stop::make_problem(machine::paragon(1, 3), std::vector<Rank>{0}, 1000);
  const mp::Schedule sched = mp::Schedule::from_ops(
      3, {send_op(0, 1, 2, 1, 110, {}, 0),
          send_op(1, 0, 2, 0, 100, {0}, 1000),
          send_op(2, 0, 2, 3, 130, {0}, 1000),
          send_op(3, 1, 2, 0, 140, {}, 0),
          send_op(4, 2, 0, 0, 150, {}, 0),
          completed_recv(5, 2, 0, 3, 2, 130),
          // Stale hint: send 2 is already consumed.
          completed_recv(6, 2, mp::kAnySource, mp::kAnyTag, 2, 110),
          // Incompatible hint: send 4 goes to rank 0, not rank 2.
          completed_recv(7, 2, mp::kAnySource, 0, 4, 100),
          completed_recv(8, 2, mp::kAnySource, mp::kAnyTag, -1, 140),
          completed_recv(9, 0, 2, 0, 4, 150)});
  const AnalysisReport report = analyze_schedule(sched, pb);
  EXPECT_TRUE(matching_ok(report)) << report.to_string();
}

TEST(AnalyzeChecks, TiedConflictLevelsNameTheFirstToReachTheMaximum) {
  // Rank 0 feeds rank 1 twice at level 1 (link 0->1); rank 1 forwards
  // twice to rank 2 at level 2 (link 1->2).  Both levels peak at 2; the
  // worst level is the one whose second transfer comes first in op order.
  const stop::Problem pb =
      stop::make_problem(machine::paragon(1, 3), std::vector<Rank>{0}, 1000);
  const auto worst_level = [&](bool level2_first) {
    std::vector<ScheduleOp> ops{send_op(0, 0, 1, 0, 1020, {0}, 1000),
                                recv_op(1, 1, 0, 0)};
    const ScheduleOp second_feed = send_op(0, 0, 1, 0, 1020, {0}, 1000);
    if (!level2_first) ops.push_back(second_feed);
    ops.push_back(send_op(0, 1, 2, 0, 1020, {0}, 1000));
    ops.push_back(send_op(0, 1, 2, 0, 1020, {0}, 1000));
    if (level2_first) ops.push_back(second_feed);
    ops.push_back(recv_op(0, 1, 0, 0));
    ops.push_back(recv_op(0, 2, 1, 0));
    ops.push_back(recv_op(0, 2, 1, 0));
    for (std::size_t i = 0; i < ops.size(); ++i)
      ops[i].id = static_cast<int>(i);
    const AnalysisReport report =
        analyze_schedule(mp::Schedule::from_ops(3, std::move(ops)), pb);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.quality.max_link_conflicts, 2);
    return report.quality.worst_conflict_level;
  };
  EXPECT_EQ(worst_level(true), 2);
  EXPECT_EQ(worst_level(false), 1);
}

TEST(AnalyzeChecks, RankCountMismatchRejected) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      4, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0)});
  EXPECT_THROW(analyze_schedule(sched, two_rank_problem()), CheckError);
}

}  // namespace
}  // namespace spb::analyze
