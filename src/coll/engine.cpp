#include "coll/engine.h"

#include <utility>

#include "common/check.h"

namespace spb::coll {

sim::Task run_halving(mp::Comm& comm,
                      std::shared_ptr<const std::vector<Rank>> seq,
                      int my_pos,
                      std::shared_ptr<const HalvingSchedule> sched,
                      mp::Payload& data, HalvingOptions opts) {
  SPB_REQUIRE(seq != nullptr && sched != nullptr,
              "run_halving needs a sequence and a schedule");
  SPB_REQUIRE(static_cast<int>(seq->size()) == sched->size(),
              "sequence/schedule size mismatch");
  SPB_REQUIRE(my_pos >= 0 && my_pos < sched->size(), "position out of range");
  SPB_REQUIRE((*seq)[static_cast<std::size_t>(my_pos)] == comm.rank(),
              "rank " << comm.rank() << " executing position " << my_pos
                      << " that belongs to rank "
                      << (*seq)[static_cast<std::size_t>(my_pos)]);

  if (opts.phase != nullptr) comm.begin_phase(opts.phase);
  for (int iter = 0; iter < sched->iterations(); ++iter) {
    const auto& actions = sched->actions(iter, my_pos);
    if (!actions.empty()) {
      // Sends ship the payload as of the start of the iteration; data
      // merged during this iteration travels in later iterations.  send()
      // copies `data` at the call, and nothing merges into it until every
      // send of the iteration is done.
      for (const Action& a : actions) {
        if (a.type != Action::Type::kSend) continue;
        SPB_CHECK_MSG(!data.empty(),
                      "schedule marked an empty rank as a sender");
        co_await comm.send((*seq)[static_cast<std::size_t>(a.peer)], data);
      }
      for (const Action& a : actions) {
        if (a.type != Action::Type::kRecv) continue;
        mp::Message m =
            co_await comm.recv((*seq)[static_cast<std::size_t>(a.peer)]);
        // Odd segment sizes can route the same original to a rank along
        // two converging paths; dedup keeps the payload canonical while
        // the (genuinely transferred) duplicate bytes stay accounted.
        if (opts.combine_cost) {
          co_await comm.merge(data, std::move(m.payload), /*dedup=*/true);
        } else {
          data.merge_dedup(m.payload);
        }
      }
    }
    if (opts.mark_iterations) comm.mark_iteration();
  }
  if (opts.phase != nullptr) comm.end_phase();
}

}  // namespace spb::coll
