// Static checks over a recorded communication schedule (mp::Schedule).
//
// Everything here is a pure function of the schedule and the problem — no
// simulator is advanced.  Four families of checks, mirroring the paper's
// correctness obligations for every stop:: algorithm:
//
//  1. Matching: every send is consumed by exactly one receive and every
//     posted receive matches exactly one send, re-derived statically from
//     the (rank, peer, tag) filters under per-(src,dst,tag) FIFO order —
//     the recorded match edges are used only to resolve wildcard
//     ambiguity, never trusted for correctness.
//  2. Deadlock-freedom: the wait-for graph (program-order edges within a
//     rank, match edges from a receive to the send it consumes) must be
//     acyclic; a cycle or an unmatched receive is reported with the full
//     chain of ops (rank/step/tag) that hangs.
//  3. Chunk conservation: chunk sets are duplicate-free, a rank only
//     sends chunks it held at that point of its program (originals or
//     previously received), and every rank ends holding all s source
//     chunks.  Deliveries of already-held chunks are counted as
//     redundancy (PersAlltoAll-style algorithms produce them on purpose,
//     so they are a metric, not a violation).
//  4. Schedule quality: measured steps/critical-path depth against the
//     ceil(log2(p/s)) round lower bound, sent payload volume against the
//     s*L*(p-1)/p per-rank lower bound, and per-level link-conflict
//     counts on the problem's actual topology/mapping — regressions in
//     schedule quality surface here before any benchmark moves.
//
// Cost for n ops, S of them sends, on p ranks: matching is O(n + S log S)
// (one sort of the sends per destination), the wait-for graph, its cycle
// search and topological order are O(n), the chunk checks are linear in
// the carried chunk entries plus an O(p^2) held table, and the link
// conflicts are O(S * route length) plus an O(p^2) route-cache slot table.
// On a 130k-op t3d512 all-to-all schedule, routing the sends for the link
// conflicts is about half of the analyzer's time, and recording the run
// costs more than checking it (EXPERIMENTS.md, "Analyzer cost").
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "mp/schedule.h"
#include "stop/problem.h"

namespace spb::analyze {

struct Violation {
  enum class Kind {
    kUnmatchedRecv,    // a posted receive no send can satisfy
    kUnreceivedSend,   // a sent message no receive ever consumes
    kSizeMismatch,     // matched pair disagrees on the wire size
    kDeadlockCycle,    // wait-for graph has a cycle
    kChunkIntegrity,   // duplicate source inside one message's chunk set
    kUnknownSource,    // a chunk whose source is not a problem source
    kProvenance,       // a rank sends a chunk it never held
    kCoverage,         // a rank does not end with all s chunks
    kQuality,          // a quality gate (optional slack threshold) tripped
  };

  Kind kind;
  /// Full actionable description naming rank / peer / tag / step.
  std::string message;
  /// Primary op this violation anchors to (-1 when none applies).
  int op = -1;
  Rank rank = kNoRank;
  int step = -1;
  int tag = -1;
};

std::string violation_kind_name(Violation::Kind kind);

/// Schedule-quality measurements and their symbolic lower bounds.
struct QualityMetrics {
  /// Max communication ops of any rank (program steps).
  int max_rank_steps = 0;
  /// Longest chain in the wait-for graph, counting match edges — the
  /// schedule's logical round count.
  int critical_depth = 0;
  /// ceil(log2(ceil(p/s))): the holder count at most doubles per round,
  /// and s ranks hold data at round zero.
  int round_lower_bound = 0;

  /// Payload bytes summed over all sends / the busiest sender.
  Bytes total_payload_bytes = 0;
  Bytes max_rank_payload_bytes = 0;
  /// Wire bytes (payload + envelopes + filler segments) over all sends.
  Bytes total_wire_bytes = 0;
  /// s*L*(p-1)/p — what the busiest rank must send at minimum when the
  /// load is perfectly balanced.
  Bytes per_rank_volume_lower_bound = 0;

  /// Deliveries of a chunk the receiver already held (deliberate for
  /// PersAlltoAll-style redundancy; a regression signal elsewhere).
  int redundant_chunk_deliveries = 0;
  Bytes redundant_payload_bytes = 0;

  /// Worst same-level contention: how many same-level transfers cross the
  /// hottest directed link (1 = conflict-free), and at which level.
  int max_link_conflicts = 0;
  int worst_conflict_level = -1;

  std::string to_string() const;
};

struct AnalysisOptions {
  /// Route every transfer on the problem's topology and count per-level
  /// link conflicts (skippable: it is the only O(ops * diameter) part).
  bool link_conflicts = true;
  /// Optional quality gates; 0 disables the gate.  When set, measured /
  /// lower-bound ratios above the slack raise a kQuality violation.
  double max_step_slack = 0.0;
  double max_volume_slack = 0.0;
  /// Cap on violations listed in the report text (all are counted).
  int max_report = 16;
};

struct AnalysisReport {
  std::vector<Violation> violations;
  QualityMetrics quality;

  bool ok() const { return violations.empty(); }
  /// Multi-line human-readable report: verdict, violations (capped),
  /// quality table.
  std::string to_string(int max_report = 16) const;
};

/// Runs all static checks on a recorded (or mutated) schedule.
AnalysisReport analyze_schedule(const mp::Schedule& schedule,
                                const stop::Problem& problem,
                                const AnalysisOptions& options = {});

}  // namespace spb::analyze
