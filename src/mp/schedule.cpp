#include "mp/schedule.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "mp/mailbox.h"
#include "mp/message.h"

namespace spb::mp {

std::string ScheduleOp::to_string() const {
  std::ostringstream os;
  os << "rank " << rank << " step " << step << ": ";
  if (is_send()) {
    os << "send(dst=" << peer << ", tag=" << tag << ", " << wire_bytes
       << "B";
  } else {
    os << "recv(src=";
    if (peer == kAnySource) {
      os << "any";
    } else {
      os << peer;
    }
    os << ", tag=";
    if (tag == kAnyTag) {
      os << "any";
    } else {
      os << tag;
    }
  }
  if (!chunk_sources.empty()) {
    os << ", chunks={";
    for (std::size_t i = 0; i < chunk_sources.size(); ++i) {
      if (i > 0) os << ",";
      os << chunk_sources[i];
    }
    os << "}";
  }
  os << ")";
  if (is_recv() && !completed) os << " [never completed]";
  return os.str();
}

Schedule::Schedule(int rank_count) : rank_count_(rank_count) {
  SPB_REQUIRE(rank_count >= 1, "schedule needs >= 1 rank");
  by_rank_.resize(static_cast<std::size_t>(rank_count));
}

Schedule Schedule::from_ops(int rank_count, std::vector<ScheduleOp> ops) {
  Schedule s(rank_count);
  // Old id -> new id (-1 for ids not present any more).
  int max_old = -1;
  for (const ScheduleOp& op : ops) max_old = std::max(max_old, op.id);
  std::vector<int> remap(static_cast<std::size_t>(max_old + 1), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    SPB_REQUIRE(ops[i].rank >= 0 && ops[i].rank < rank_count,
                "op rank " << ops[i].rank << " outside 0.." << rank_count - 1);
    SPB_REQUIRE(ops[i].id >= 0, "op " << i << " has no id; assign distinct "
                                      << "ids before from_ops()");
    remap[static_cast<std::size_t>(ops[i].id)] = static_cast<int>(i);
  }
  std::vector<int> next_step(static_cast<std::size_t>(rank_count), 0);
  s.ops_ = std::move(ops);
  for (std::size_t i = 0; i < s.ops_.size(); ++i) {
    ScheduleOp& op = s.ops_[i];
    op.id = static_cast<int>(i);
    op.step = next_step[static_cast<std::size_t>(op.rank)]++;
    if (op.match >= 0) {
      // remap only covers ids up to the largest one still present; a
      // match beyond it points at a removed op.
      const auto old = static_cast<std::size_t>(op.match);
      op.match = old < remap.size() ? remap[old] : -1;
      // A recv whose matched send was removed is no longer completed: the
      // static checks must re-derive its fate.
      if (op.match < 0 && op.is_recv()) op.completed = false;
    }
    s.by_rank_[static_cast<std::size_t>(op.rank)].push_back(op.id);
  }
  return s;
}

const std::vector<int>& Schedule::ops_of_rank(Rank r) const {
  SPB_REQUIRE(r >= 0 && r < rank_count_, "rank " << r << " out of range");
  return by_rank_[static_cast<std::size_t>(r)];
}

int Schedule::record_send(Rank rank, Rank dst, int tag, Bytes wire_bytes,
                          std::vector<Rank> chunk_sources,
                          Bytes payload_bytes) {
  ScheduleOp op;
  op.kind = ScheduleOp::Kind::kSend;
  op.id = static_cast<int>(ops_.size());
  op.rank = rank;
  op.step = static_cast<int>(by_rank_[static_cast<std::size_t>(rank)].size());
  op.peer = dst;
  op.tag = tag;
  op.wire_bytes = wire_bytes;
  op.chunk_sources = std::move(chunk_sources);
  op.payload_bytes = payload_bytes;
  by_rank_[static_cast<std::size_t>(rank)].push_back(op.id);
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

int Schedule::record_recv_post(Rank rank, Rank src_filter, int tag_filter) {
  ScheduleOp op;
  op.kind = ScheduleOp::Kind::kRecv;
  op.id = static_cast<int>(ops_.size());
  op.rank = rank;
  op.step = static_cast<int>(by_rank_[static_cast<std::size_t>(rank)].size());
  op.peer = src_filter;
  op.tag = tag_filter;
  by_rank_[static_cast<std::size_t>(rank)].push_back(op.id);
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

void Schedule::record_recv_match(int recv_id, int send_id, Bytes wire_bytes,
                                 std::vector<Rank> chunk_sources,
                                 Bytes payload_bytes) {
  SPB_REQUIRE(recv_id >= 0 && recv_id < static_cast<int>(ops_.size()),
              "recv op " << recv_id << " out of range");
  ScheduleOp& recv = ops_[static_cast<std::size_t>(recv_id)];
  SPB_CHECK(recv.is_recv());
  recv.completed = true;
  recv.match = send_id;
  recv.wire_bytes = wire_bytes;
  recv.chunk_sources = std::move(chunk_sources);
  recv.payload_bytes = payload_bytes;
  if (send_id >= 0) {
    ScheduleOp& send = ops_[static_cast<std::size_t>(send_id)];
    SPB_CHECK(send.is_send());
    SPB_CHECK_MSG(send.match < 0,
                  "send op " << send_id << " consumed twice");
    send.match = recv_id;
  }
}

}  // namespace spb::mp
