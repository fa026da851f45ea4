#include "analyze/checks.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/math.h"
#include "mp/mailbox.h"
#include "mp/message.h"
#include "net/route_cache.h"
#include "net/topology.h"

namespace spb::analyze {

namespace {

using mp::ScheduleOp;

std::string op_location(const ScheduleOp& op) { return op.to_string(); }

/// Counting sort of the items 0..n-1 by key_of(i) in [0, keys); items with
/// a negative key are left out.  Bucket k is items[start[k], start[k+1]),
/// in ascending item order.
struct Buckets {
  std::vector<int> start;
  std::vector<int> items;
};

template <typename KeyOf>
Buckets bucket_sort(std::size_t n, std::size_t keys, KeyOf key_of) {
  Buckets b;
  b.start.assign(keys + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (const int k = key_of(i); k >= 0)
      ++b.start[static_cast<std::size_t>(k) + 1];
  for (std::size_t k = 0; k < keys; ++k) b.start[k + 1] += b.start[k];
  b.items.resize(static_cast<std::size_t>(b.start[keys]));
  std::vector<int> fill(b.start.begin(), b.start.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    if (const int k = key_of(i); k >= 0)
      b.items[static_cast<std::size_t>(fill[static_cast<std::size_t>(k)]++)] =
          static_cast<int>(i);
  return b;
}

/// Statically re-derived matching: send id <-> recv id (-1 = unmatched).
struct Matching {
  std::vector<int> send_consumer;  // indexed by op id; -1 for recvs
  std::vector<int> recv_source;    // indexed by op id; -1 for sends
};

/// Re-derives the send/recv matching from filters alone, honouring FIFO
/// per (src, dst, tag).  Recorded match edges only break wildcard ties.
Matching derive_matching(const mp::Schedule& sched,
                         std::vector<Violation>& out) {
  const auto& ops = sched.ops();
  const auto p = static_cast<std::size_t>(sched.rank_count());
  Matching m;
  m.send_consumer.assign(ops.size(), -1);
  m.recv_source.assign(ops.size(), -1);

  // Sends bucketed by destination, each bucket sorted by (src, tag, id): a
  // run of equal (src, tag) is one FIFO group, and the groups of a bucket
  // are in (src, tag) order.
  struct Pending {
    Rank src;
    int tag;
    int id;
  };
  const Buckets by_dst = bucket_sort(ops.size(), p, [&](std::size_t i) {
    return ops[i].is_send() ? ops[i].peer : -1;
  });
  const std::vector<int>& bucket = by_dst.start;
  std::vector<Pending> sends;
  sends.reserve(by_dst.items.size());
  for (const int id : by_dst.items) {
    const ScheduleOp& op = ops[static_cast<std::size_t>(id)];
    sends.push_back({op.rank, op.tag, id});
  }

  // A group's head skips sends already consumed (a recorded hint may take
  // one from the middle of its group).
  struct Group {
    Rank src;
    int tag;
    int head;
    int end;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> group_start(p + 1, 0);
  for (std::size_t d = 0; d < p; ++d) {
    const auto first = sends.begin() + bucket[d];
    const auto last = sends.begin() + bucket[d + 1];
    std::sort(first, last, [](const Pending& a, const Pending& b) {
      return std::tie(a.src, a.tag, a.id) < std::tie(b.src, b.tag, b.id);
    });
    for (int i = bucket[d]; i < bucket[d + 1];) {
      const Pending& g = sends[static_cast<std::size_t>(i)];
      int j = i + 1;
      while (j < bucket[d + 1] &&
             sends[static_cast<std::size_t>(j)].src == g.src &&
             sends[static_cast<std::size_t>(j)].tag == g.tag)
        ++j;
      groups.push_back({g.src, g.tag, i, j});
      i = j;
    }
    group_start[d + 1] = groups.size();
  }

  for (Rank d = 0; d < sched.rank_count(); ++d) {
    for (const int rid : sched.ops_of_rank(d)) {
      const ScheduleOp& recv = ops[static_cast<std::size_t>(rid)];
      if (!recv.is_recv()) continue;

      const auto compatible = [&](Rank src, int tag) {
        const bool src_ok = recv.peer == mp::kAnySource || recv.peer == src;
        const bool tag_ok = recv.tag == mp::kAnyTag || recv.tag == tag;
        return src_ok && tag_ok;
      };

      // Prefer the recorded match when it is still available and passes
      // the filters (it resolves wildcard nondeterminism the way the run
      // actually went).
      int chosen = -1;
      if (recv.match >= 0) {
        const ScheduleOp& hint = ops[static_cast<std::size_t>(recv.match)];
        if (hint.is_send() && hint.peer == d &&
            m.send_consumer[static_cast<std::size_t>(hint.id)] < 0 &&
            compatible(hint.rank, hint.tag))
          chosen = hint.id;
      }
      if (chosen < 0) {
        // Earliest-issued compatible send (FIFO heads only).
        const auto dst = static_cast<std::size_t>(d);
        for (std::size_t gi = group_start[dst]; gi < group_start[dst + 1];
             ++gi) {
          Group& g = groups[gi];
          if (!compatible(g.src, g.tag)) continue;
          while (g.head < g.end &&
                 m.send_consumer[static_cast<std::size_t>(
                     sends[static_cast<std::size_t>(g.head)].id)] >= 0)
            ++g.head;
          if (g.head == g.end) continue;
          const int id = sends[static_cast<std::size_t>(g.head)].id;
          if (chosen < 0 || id < chosen) chosen = id;
        }
      }

      if (chosen < 0) {
        Violation v;
        v.kind = Violation::Kind::kUnmatchedRecv;
        v.op = rid;
        v.rank = recv.rank;
        v.step = recv.step;
        v.tag = recv.tag;
        std::ostringstream os;
        os << "no send satisfies " << op_location(recv)
           << " — the program hangs here";
        v.message = os.str();
        out.push_back(std::move(v));
        continue;
      }

      m.recv_source[static_cast<std::size_t>(rid)] = chosen;
      m.send_consumer[static_cast<std::size_t>(chosen)] = rid;

      const ScheduleOp& send = ops[static_cast<std::size_t>(chosen)];
      // A completed receive recorded what actually arrived; its wire size
      // must agree with the send we matched it to.
      if (recv.completed && recv.wire_bytes != send.wire_bytes) {
        Violation v;
        v.kind = Violation::Kind::kSizeMismatch;
        v.op = rid;
        v.rank = recv.rank;
        v.step = recv.step;
        v.tag = send.tag;
        std::ostringstream os;
        os << op_location(recv) << " received " << recv.wire_bytes
           << "B but its matched send (" << op_location(send) << ") carries "
           << send.wire_bytes << "B";
        v.message = os.str();
        out.push_back(std::move(v));
      }
    }
  }

  for (const ScheduleOp& op : ops) {
    if (!op.is_send()) continue;
    if (m.send_consumer[static_cast<std::size_t>(op.id)] >= 0) continue;
    Violation v;
    v.kind = Violation::Kind::kUnreceivedSend;
    v.op = op.id;
    v.rank = op.rank;
    v.step = op.step;
    v.tag = op.tag;
    std::ostringstream os;
    os << "no receive on rank " << op.peer << " ever consumes "
       << op_location(op) << " — redundant or mis-tagged traffic";
    v.message = os.str();
    out.push_back(std::move(v));
  }
  return m;
}

/// Wait-for graph: op u waits on at most two ops, stored in slots 2u
/// (program predecessor) and 2u+1 (for a receive, the send it matches);
/// -1 marks an empty slot.
std::vector<int> dependency_edges(const mp::Schedule& sched,
                                  const Matching& m) {
  const auto& ops = sched.ops();
  std::vector<int> deps(2 * ops.size(), -1);
  for (Rank r = 0; r < sched.rank_count(); ++r) {
    const auto& ids = sched.ops_of_rank(r);
    for (std::size_t i = 1; i < ids.size(); ++i)
      deps[2 * static_cast<std::size_t>(ids[i])] = ids[i - 1];
  }
  for (std::size_t u = 0; u < ops.size(); ++u)
    if (ops[u].is_recv()) deps[2 * u + 1] = m.recv_source[u];
  return deps;
}

/// DFS cycle detection; returns one cycle as op ids (empty = acyclic).
std::vector<int> find_cycle(const std::vector<int>& deps) {
  const std::size_t n = deps.size() / 2;
  std::vector<int> color(n, 0);  // 0/1/2
  std::vector<int> parent(n, -1);
  // Iterative DFS; the stack holds (node, next slot).
  std::vector<std::pair<int, int>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    stack.push_back({static_cast<int>(root), 0});
    color[root] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < 2) {
        const int v = deps[2 * static_cast<std::size_t>(u) +
                           static_cast<std::size_t>(next++)];
        if (v < 0) continue;
        if (color[static_cast<std::size_t>(v)] == 1) {
          // Found a back edge u -> v: walk parents from u back to v.
          std::vector<int> cycle{v};
          for (int w = u; w != v; w = parent[static_cast<std::size_t>(w)])
            cycle.push_back(w);
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
        if (color[static_cast<std::size_t>(v)] == 0) {
          color[static_cast<std::size_t>(v)] = 1;
          parent[static_cast<std::size_t>(v)] = u;
          stack.push_back({v, 0});
        }
      } else {
        color[static_cast<std::size_t>(u)] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

/// Kahn topological order over the dependency edges (partial if cyclic).
/// The output doubles as the FIFO queue.
std::vector<int> topological_order(const std::vector<int>& deps) {
  const std::size_t n = deps.size() / 2;
  // Edge slots bucketed by the op they wait on; slot e belongs to op e/2.
  const Buckets unblocks = bucket_sort(
      deps.size(), n, [&](std::size_t e) { return deps[e]; });
  std::vector<int> blockers(n, 0);
  for (std::size_t e = 0; e < deps.size(); ++e)
    if (deps[e] >= 0) ++blockers[e / 2];

  std::vector<int> order;
  order.reserve(n);
  for (std::size_t u = 0; u < n; ++u)
    if (blockers[u] == 0) order.push_back(static_cast<int>(u));
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto u = static_cast<std::size_t>(order[head]);
    for (int i = unblocks.start[u]; i < unblocks.start[u + 1]; ++i) {
      const int w = unblocks.items[static_cast<std::size_t>(i)] / 2;
      if (--blockers[static_cast<std::size_t>(w)] == 0) order.push_back(w);
    }
  }
  return order;
}

/// Worst same-level contention: sends bucketed by level (op order kept
/// inside a level), routed and counted per directed link.  The worst level
/// is the one whose count first reached the global maximum in op order.
void count_link_conflicts(const std::vector<ScheduleOp>& ops,
                          const std::vector<int>& level,
                          const stop::Problem& pb, QualityMetrics& q) {
  const net::Topology& topo = *pb.machine.topology;
  const net::RankMapping& mapping = pb.machine.mapping;
  if (level.empty()) return;
  const int max_level = *std::max_element(level.begin(), level.end());
  const Buckets by_level = bucket_sort(
      ops.size(), static_cast<std::size_t>(max_level) + 1,
      [&](std::size_t i) { return ops[i].is_send() ? level[i] : -1; });

  net::RouteCache routes(topo);
  std::vector<int> count(static_cast<std::size_t>(topo.link_space()), 0);
  std::vector<LinkId> touched;
  int worst_first = -1;  // op id at which the worst level reached its max
  for (int l = 0; l <= max_level; ++l) {
    int level_max = 0;
    int level_first = -1;
    for (int i = by_level.start[static_cast<std::size_t>(l)];
         i < by_level.start[static_cast<std::size_t>(l) + 1]; ++i) {
      const ScheduleOp& op = ops[static_cast<std::size_t>(
          by_level.items[static_cast<std::size_t>(i)])];
      for (const LinkId link : routes.path(mapping.node_of(op.rank),
                                           mapping.node_of(op.peer))) {
        const int c = ++count[static_cast<std::size_t>(link)];
        if (c == 1) touched.push_back(link);
        if (c > level_max) {
          level_max = c;
          level_first = op.id;
        }
      }
    }
    if (level_max > q.max_link_conflicts ||
        (level_max == q.max_link_conflicts && level_max > 0 &&
         level_first < worst_first)) {
      q.max_link_conflicts = level_max;
      q.worst_conflict_level = l;
      worst_first = level_first;
    }
    for (const LinkId link : touched) count[static_cast<std::size_t>(link)] = 0;
    touched.clear();
  }
}

}  // namespace

std::string violation_kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kUnmatchedRecv: return "unmatched-recv";
    case Violation::Kind::kUnreceivedSend: return "unreceived-send";
    case Violation::Kind::kSizeMismatch: return "size-mismatch";
    case Violation::Kind::kDeadlockCycle: return "deadlock-cycle";
    case Violation::Kind::kChunkIntegrity: return "chunk-integrity";
    case Violation::Kind::kUnknownSource: return "unknown-source";
    case Violation::Kind::kProvenance: return "provenance";
    case Violation::Kind::kCoverage: return "coverage";
    case Violation::Kind::kQuality: return "quality-gate";
  }
  return "?";
}

std::string QualityMetrics::to_string() const {
  std::ostringstream os;
  os << "steps: max/rank " << max_rank_steps << ", critical depth "
     << critical_depth << " (lower bound " << round_lower_bound << ")\n"
     << "volume: payload " << total_payload_bytes << "B total, busiest rank "
     << max_rank_payload_bytes << "B (balanced lower bound "
     << per_rank_volume_lower_bound << "B/rank), wire " << total_wire_bytes
     << "B\n"
     << "redundancy: " << redundant_chunk_deliveries
     << " already-held chunk deliveries, " << redundant_payload_bytes
     << "B\n"
     << "link conflicts: worst " << max_link_conflicts
     << " same-level transfers on one link";
  if (worst_conflict_level >= 0)
    os << " (level " << worst_conflict_level << ")";
  return os.str();
}

std::string AnalysisReport::to_string(int max_report) const {
  std::ostringstream os;
  if (ok()) {
    os << "schedule OK\n";
  } else {
    os << violations.size() << " violation(s)\n";
    int shown = 0;
    for (const Violation& v : violations) {
      if (shown++ >= max_report) {
        os << "  ... and " << (violations.size() -
                               static_cast<std::size_t>(max_report))
           << " more\n";
        break;
      }
      os << "  [" << violation_kind_name(v.kind) << "] " << v.message
         << "\n";
    }
  }
  os << quality.to_string();
  return os.str();
}

AnalysisReport analyze_schedule(const mp::Schedule& sched,
                                const stop::Problem& pb,
                                const AnalysisOptions& options) {
  pb.validate();
  SPB_REQUIRE(sched.rank_count() == pb.p(),
              "schedule covers " << sched.rank_count()
                                 << " ranks but the problem has " << pb.p());
  AnalysisReport report;
  const auto& ops = sched.ops();

  // ---- 1. send/recv matching -----------------------------------------
  const Matching m = derive_matching(sched, report.violations);

  // ---- 2. wait-for graph ---------------------------------------------
  const std::vector<int> deps = dependency_edges(sched, m);
  const std::vector<int> cycle = find_cycle(deps);
  if (!cycle.empty()) {
    Violation v;
    v.kind = Violation::Kind::kDeadlockCycle;
    v.op = cycle.front();
    v.rank = ops[static_cast<std::size_t>(cycle.front())].rank;
    v.step = ops[static_cast<std::size_t>(cycle.front())].step;
    std::ostringstream os;
    os << "wait-for cycle of " << cycle.size() << " op(s):";
    for (const int id : cycle)
      os << "\n      " << op_location(ops[static_cast<std::size_t>(id)]);
    os << "\n      ... back to the first op";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }
  const std::vector<int> topo = topological_order(deps);

  // ---- 3. chunk conservation -----------------------------------------
  std::vector<char> is_source(static_cast<std::size_t>(pb.p()), 0);
  for (const Rank s : pb.sources) is_source[static_cast<std::size_t>(s)] = 1;

  std::vector<Rank> sorted;
  for (const ScheduleOp& op : ops) {
    if (!op.is_send()) continue;
    sorted.assign(op.chunk_sources.begin(), op.chunk_sources.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const Rank c = sorted[i];
      if (i > 0 && sorted[i - 1] == c) {
        Violation v;
        v.kind = Violation::Kind::kChunkIntegrity;
        v.op = op.id;
        v.rank = op.rank;
        v.step = op.step;
        v.tag = op.tag;
        std::ostringstream os;
        os << op_location(op) << " carries the chunk of source " << c
           << " more than once in a single message";
        v.message = os.str();
        report.violations.push_back(std::move(v));
        break;
      }
      if (c < 0 || c >= pb.p() || is_source[static_cast<std::size_t>(c)] == 0) {
        Violation v;
        v.kind = Violation::Kind::kUnknownSource;
        v.op = op.id;
        v.rank = op.rank;
        v.step = op.step;
        v.tag = op.tag;
        std::ostringstream os;
        os << op_location(op) << " carries a chunk of rank " << c
           << ", which is not a source of this problem";
        v.message = os.str();
        report.violations.push_back(std::move(v));
      }
    }
  }

  // Held-chunk propagation in dependency order: a rank may only send what
  // it started with or already received; deliveries of already-held
  // chunks are the redundancy metric.
  std::vector<std::vector<char>> held(
      static_cast<std::size_t>(pb.p()),
      std::vector<char>(static_cast<std::size_t>(pb.p()), 0));
  for (const Rank s : pb.sources)
    held[static_cast<std::size_t>(s)][static_cast<std::size_t>(s)] = 1;
  // Chunk size by source rank, for the redundant-bytes attribution.
  std::vector<Bytes> chunk_bytes(static_cast<std::size_t>(pb.p()), 0);
  for (std::size_t i = 0; i < pb.sources.size(); ++i)
    chunk_bytes[static_cast<std::size_t>(pb.sources[i])] +=
        pb.bytes_of_source(i);

  std::size_t provenance_reported = 0;
  for (const int id : topo) {
    const ScheduleOp& op = ops[static_cast<std::size_t>(id)];
    auto& mine = held[static_cast<std::size_t>(op.rank)];
    if (op.is_send()) {
      for (const Rank c : op.chunk_sources) {
        if (c < 0 || c >= pb.p()) continue;  // already an unknown-source
        if (mine[static_cast<std::size_t>(c)]) continue;
        if (provenance_reported++ < 64) {
          Violation v;
          v.kind = Violation::Kind::kProvenance;
          v.op = op.id;
          v.rank = op.rank;
          v.step = op.step;
          v.tag = op.tag;
          std::ostringstream os;
          os << op_location(op) << " ships the chunk of source " << c
             << " which rank " << op.rank
             << " has neither originated nor received by step " << op.step;
          v.message = os.str();
          report.violations.push_back(std::move(v));
        }
      }
    } else {
      const int sid = m.recv_source[static_cast<std::size_t>(id)];
      if (sid < 0) continue;  // unmatched: already reported
      const ScheduleOp& send = ops[static_cast<std::size_t>(sid)];
      for (const Rank c : send.chunk_sources) {
        if (c < 0 || c >= pb.p()) continue;
        auto& flag = mine[static_cast<std::size_t>(c)];
        if (flag) {
          ++report.quality.redundant_chunk_deliveries;
          report.quality.redundant_payload_bytes +=
              chunk_bytes[static_cast<std::size_t>(c)];
        } else {
          flag = 1;
        }
      }
    }
  }

  // Coverage: every rank must end up holding every source's chunk.
  std::size_t coverage_reported = 0;
  for (Rank r = 0; r < pb.p(); ++r) {
    std::vector<Rank> missing;
    for (const Rank s : pb.sources)
      if (!held[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)])
        missing.push_back(s);
    if (missing.empty()) continue;
    if (coverage_reported++ >= 64) continue;
    Violation v;
    v.kind = Violation::Kind::kCoverage;
    v.rank = r;
    std::ostringstream os;
    os << "rank " << r << " never obtains " << missing.size() << " of "
       << pb.s() << " chunks (missing sources:";
    for (std::size_t i = 0; i < missing.size() && i < 8; ++i)
      os << " " << missing[i];
    if (missing.size() > 8) os << " ...";
    os << ")";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }

  // ---- 4. schedule quality -------------------------------------------
  QualityMetrics& q = report.quality;
  Bytes source_bytes_total = 0;
  for (std::size_t i = 0; i < pb.sources.size(); ++i)
    source_bytes_total += pb.bytes_of_source(i);
  q.round_lower_bound =
      pb.p() > pb.s()
          ? ilog2_ceil(ceil_div(pb.p(), pb.s()))
          : 0;
  q.per_rank_volume_lower_bound =
      source_bytes_total * static_cast<Bytes>(pb.p() - 1) /
      static_cast<Bytes>(pb.p());

  std::vector<Bytes> sent_payload(static_cast<std::size_t>(pb.p()), 0);
  for (Rank r = 0; r < pb.p(); ++r)
    q.max_rank_steps = std::max(
        q.max_rank_steps, static_cast<int>(sched.ops_of_rank(r).size()));
  for (const ScheduleOp& op : ops) {
    if (!op.is_send()) continue;
    q.total_payload_bytes += op.payload_bytes;
    q.total_wire_bytes += op.wire_bytes;
    sent_payload[static_cast<std::size_t>(op.rank)] += op.payload_bytes;
  }
  for (const Bytes b : sent_payload)
    q.max_rank_payload_bytes = std::max(q.max_rank_payload_bytes, b);

  // Message level = longest chain of matched messages ending at a send;
  // doubling argument: level_max >= ceil(log2(p/s)).
  std::vector<int> level(ops.size(), 0);
  std::vector<int> rank_depth(static_cast<std::size_t>(pb.p()), 0);
  for (const int id : topo) {
    const ScheduleOp& op = ops[static_cast<std::size_t>(id)];
    auto& depth = rank_depth[static_cast<std::size_t>(op.rank)];
    if (op.is_send()) {
      level[static_cast<std::size_t>(id)] = depth + 1;
    } else {
      const int sid = m.recv_source[static_cast<std::size_t>(id)];
      if (sid >= 0)
        depth = std::max(depth, level[static_cast<std::size_t>(sid)]);
    }
  }
  for (const int l : level) q.critical_depth = std::max(q.critical_depth, l);

  if (options.link_conflicts && pb.machine.topology)
    count_link_conflicts(ops, level, pb, q);

  if (options.max_step_slack > 0 && q.round_lower_bound > 0 &&
      q.max_rank_steps >
          options.max_step_slack * q.round_lower_bound) {
    Violation v;
    v.kind = Violation::Kind::kQuality;
    std::ostringstream os;
    os << "step gate: busiest rank runs " << q.max_rank_steps
       << " comm ops against a lower bound of " << q.round_lower_bound
       << " rounds (slack " << options.max_step_slack << ")";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }
  if (options.max_volume_slack > 0 && q.per_rank_volume_lower_bound > 0 &&
      static_cast<double>(q.max_rank_payload_bytes) >
          options.max_volume_slack *
              static_cast<double>(q.per_rank_volume_lower_bound)) {
    Violation v;
    v.kind = Violation::Kind::kQuality;
    std::ostringstream os;
    os << "volume gate: busiest rank sends " << q.max_rank_payload_bytes
       << "B against a balanced lower bound of "
       << q.per_rank_volume_lower_bound << "B (slack "
       << options.max_volume_slack << ")";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }

  return report;
}

}  // namespace spb::analyze
