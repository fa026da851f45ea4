#include "sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/cores.h"

namespace spb::bench {

SweepRunner::SweepRunner(int jobs) : jobs_(jobs) {
  SPB_REQUIRE(jobs >= 0, "negative job count " << jobs);
  if (jobs_ < 1) jobs_ = 1;
}

void SweepRunner::run(std::size_t count,
                      const std::function<void(std::size_t)>& task) const {
  if (count == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

int SweepRunner::hardware_jobs() { return usable_cores(); }

}  // namespace spb::bench
