#include "coll/alltoall.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/math.h"
#include "mp/mailbox.h"

namespace spb::coll {

bool uses_xor_schedule(int n) { return is_pow2(n); }

int exchange_partner(int n, int pos, int t) {
  SPB_REQUIRE(n >= 2, "exchange needs at least two participants");
  SPB_REQUIRE(t >= 1 && t < n, "round " << t << " outside 1.." << (n - 1));
  SPB_REQUIRE(pos >= 0 && pos < n, "position out of range");
  if (uses_xor_schedule(n)) return pos ^ t;
  return (pos + t) % n;
}

sim::Task personalized_exchange(
    mp::Comm& comm, std::shared_ptr<const std::vector<Rank>> seq, int my_pos,
    std::shared_ptr<const std::vector<char>> is_source, mp::Payload& data) {
  SPB_REQUIRE(seq != nullptr && is_source != nullptr,
              "exchange needs a sequence and source flags");
  SPB_REQUIRE(seq->size() == is_source->size(),
              "sequence/source-flag size mismatch");
  const int n = static_cast<int>(seq->size());
  SPB_REQUIRE(my_pos >= 0 && my_pos < n, "position out of range");
  SPB_REQUIRE((*seq)[static_cast<std::size_t>(my_pos)] == comm.rank(),
              "rank/position mismatch in personalized_exchange");

  const bool am_source = (*is_source)[static_cast<std::size_t>(my_pos)] != 0;
  SPB_CHECK_MSG(am_source == !data.empty(),
                "rank " << comm.rank()
                        << " source flag disagrees with its payload");

  // All sends first: round t pushes my original to my round-t partner.
  // send() copies `data` at the call, and the merges below only start once
  // every send is done, so no received chunk leaks into a send.
  if (am_source && n >= 2) {
    for (int t = 1; t < n; ++t) {
      const int peer = exchange_partner(n, my_pos, t);
      co_await comm.send((*seq)[static_cast<std::size_t>(peer)], data);
      comm.mark_iteration();
    }
  }

  // Then drain the expected originals, in whatever order they arrive.  No
  // combining cost: the algorithm never merges messages into bigger ones.
  int expected = static_cast<int>(
      std::count(is_source->begin(), is_source->end(), char{1}));
  if (am_source) --expected;
  for (int k = 0; k < expected; ++k) {
    mp::Message m = co_await comm.recv(mp::kAnySource, mp::tags::kData);
    data.merge(m.payload);
    comm.mark_iteration();
  }
}

}  // namespace spb::coll
