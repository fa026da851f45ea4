// Serial run outcomes, pinned, and whole runs on concurrent threads.
//
// A run is one serial event loop (mp::Runtime over sim::Simulator), and
// spb's parallelism is across runs: SweepRunner jobs and serve workers run
// separate simulations on separate threads at once.  The contract those
// rely on is that a run's outcome depends only on its inputs, never on
// what other threads do.  These tests fingerprint *everything* a run
// produces — makespan bits, every aggregate metric, fault counters,
// network totals, per-link busy times, event counts, the phase table and
// the final payload of every rank — and pin the FNV-1a hash of that
// fingerprint for Br_Lin on the four machine shapes of the acceptance
// matrix (paragon8x8, t3d512, torus4x4x4x4, cluster8x4), faults off and
// on.  Then many threads run the same combo at once and must all match
// the pin.  Under TSan this suite doubles as the data-race check for state
// shared between concurrent runs.
//
// Refresh a pin only for a change that is meant to alter simulated
// results.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cores.h"
#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace spb {
namespace {

// Doubles are rendered as exact bit patterns: "identical" here means
// byte-identical, not approximately equal.
void put(std::ostringstream& os, double v) {
  os << std::bit_cast<std::uint64_t>(v) << ',';
}

std::string fingerprint(const stop::RunResult& r) {
  std::ostringstream os;
  put(os, r.time_us);
  const mp::RunMetrics& m = r.outcome.metrics;
  os << m.total_sends << ',' << m.total_recvs << ',' << m.total_bytes_sent
     << ',' << m.congestion << ',' << m.max_waits << ',' << m.max_send_recv
     << ',' << m.iterations << ',' << m.transit_drops << ','
     << m.retransmits << ',' << m.duplicates << ',';
  put(os, m.av_msg_lgth);
  put(os, m.av_act_proc);
  const net::NetworkStats& n = r.outcome.network;
  os << n.transfers << ',' << n.total_hops << ',' << n.total_bytes << ',';
  put(os, n.total_link_busy_us);
  put(os, n.max_link_busy_us);
  put(os, n.total_stall_us);
  for (const double b : r.outcome.link_busy_us) put(os, b);
  os << '|' << r.outcome.events << ',' << r.outcome.peak_queue_depth << '|';
  for (const auto& ph : r.outcome.phases) {
    os << ph.name << ',' << ph.sends << ',' << ph.recvs << ',';
    put(os, ph.total_span_us);
    put(os, ph.max_span_us);
  }
  os << '|';
  for (const mp::Payload& p : r.final_payloads) {
    for (const mp::Chunk& c : p.chunks())
      os << c.source << ':' << c.bytes << ';';
    os << '/';
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One pinned combo: Br_Lin over Rand sources (seed 11), faults seeded 7.
struct Combo {
  machine::MachineConfig machine;
  int sources;
  Bytes bytes;
  fault::FaultSpec faults;
};

stop::RunResult run_combo(const Combo& c,
                          stop::RunConfig cfg = stop::RunConfig{}) {
  const stop::Problem pb = stop::make_problem(c.machine, dist::Kind::kRandom,
                                              c.sources, c.bytes, 11);
  if (c.faults.any()) cfg.faults(c.faults, 7);
  return stop::run(*stop::make_br_lin(), pb, cfg);
}

std::uint64_t pin_of(const Combo& c) {
  return fnv1a(fingerprint(run_combo(c)));
}

fault::FaultSpec drops(double rate, int stragglers = 0, double factor = 1.0) {
  fault::FaultSpec f;
  f.drop_rate = rate;
  f.stragglers = stragglers;
  f.straggle_factor = factor;
  return f;
}

Combo paragon8x8(const fault::FaultSpec& f = {}) {
  return {machine::paragon(8, 8), 8, 2048, f};
}
Combo t3d512(const fault::FaultSpec& f = {}) {
  return {machine::t3d(512), 8, 1024, f};
}
Combo torus4x4x4x4(const fault::FaultSpec& f = {}) {
  return {machine::torus({4, 4, 4, 4}), 8, 1024, f};
}
Combo cluster8x4(const fault::FaultSpec& f = {}) {
  return {machine::cluster(8, 4), 6, 2048, f};
}

constexpr std::uint64_t kT3d512FaultsPin = 0xf1131e9842ae23ceull;

TEST(ConcurrentRun, Paragon8x8MatchesSerialPin) {
  EXPECT_EQ(pin_of(paragon8x8()), 0x13228637f59a2bd4ull);
}

TEST(ConcurrentRun, Paragon8x8WithFaultsMatchesSerialPin) {
  EXPECT_EQ(pin_of(paragon8x8(drops(0.05, 3, 2.0))),
            0xb0942e44c7c38d63ull);
}

TEST(ConcurrentRun, T3d512MatchesSerialPin) {
  EXPECT_EQ(pin_of(t3d512()), 0xec007f88c7c2dcc6ull);
}

TEST(ConcurrentRun, T3d512WithFaultsMatchesSerialPin) {
  EXPECT_EQ(pin_of(t3d512(drops(0.02))), kT3d512FaultsPin);
}

TEST(ConcurrentRun, Torus4x4x4x4MatchesSerialPin) {
  EXPECT_EQ(pin_of(torus4x4x4x4()), 0x40839b41c3a2939dull);
}

TEST(ConcurrentRun, Torus4x4x4x4WithFaultsMatchesSerialPin) {
  EXPECT_EQ(pin_of(torus4x4x4x4(drops(0.03, 2, 1.5))),
            0x578c99b9b6426aabull);
}

TEST(ConcurrentRun, Cluster8x4MatchesSerialPin) {
  EXPECT_EQ(pin_of(cluster8x4()), 0x2d4b2a94350110d1ull);
}

TEST(ConcurrentRun, Cluster8x4WithFaultsMatchesSerialPin) {
  EXPECT_EQ(pin_of(cluster8x4(drops(0.05))), 0xcafeb9ffefcebad3ull);
}

TEST(ConcurrentRun, SimThreadsIsABenchmarkCompatNoOp) {
  // RunConfig::sim_threads survives only so spbbench still compiles; any
  // value must leave the run serial and its outcome untouched.
  const stop::RunResult r =
      run_combo(t3d512(drops(0.02)), stop::RunConfig{}.sim_threads(-1));
  EXPECT_EQ(fnv1a(fingerprint(r)), kT3d512FaultsPin);
  EXPECT_EQ(r.outcome.par.shards, 0);
}

TEST(ConcurrentRun, T3d512IdenticalUnderContention) {
  // Oversubscription: 2 x cores threads, each running the t3d512
  // faults-on combo three times.  Every run must match the serial pin —
  // state shared between runs shows up here as a differing fingerprint,
  // an exception, a crash, or a TSan report.
  const Combo combo = t3d512(drops(0.02));
  const int runners = 2 * usable_cores();
  constexpr int kRounds = 3;
  std::vector<std::uint64_t> got(
      static_cast<std::size_t>(runners * kRounds));
  std::vector<std::string> errors(got.size());
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(runners));
  for (int r = 0; r < runners; ++r)
    pool.emplace_back([&combo, &got, &errors, r]() {
      for (int k = 0; k < kRounds; ++k) {
        const auto i = static_cast<std::size_t>(r * kRounds + k);
        try {
          got[i] = pin_of(combo);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(errors[i], "") << "concurrent run " << i << " threw";
    EXPECT_EQ(got[i], kT3d512FaultsPin) << "concurrent run " << i;
  }
}

}  // namespace
}  // namespace spb
