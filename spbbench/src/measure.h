// The benchmark's own measurement code: percentiles, medians, the response
// sink that timestamps every line a server writes, open-loop generator
// accounting, the layer-decomposition arithmetic, and the result record
// every workload fills.  Nothing here calls into spb; selftest.cpp checks
// it before any number is reported.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spbbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_since(Clock::time_point t0);
/// The time point `seconds` from now.
Clock::time_point after(double seconds);

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (q in [0, 100]) of unsorted samples; 0 when
/// empty.  Rank k = ceil(q/100 * n), so n - k samples lie beyond it.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The tail rule: the highest percentile among 99, 98, 95, 90 and 75 that
/// has at least ten samples beyond it (50 when none has).  It stops at 99
/// so that latency_p99_ms means the same at every run length of 1000 or
/// more samples.
double tail_percentile(std::size_t n);

/// Latency summary: median, the tail percentile the sample count
/// supports, and that percentile's value.
struct TailSummary {
  std::size_t n = 0;
  double p50 = 0;
  double tail_q = 0;
  double tail = 0;
};
TailSummary summarize(const std::vector<double>& samples);

// ---------------------------------------------------------------- hashing

/// FNV-1a 64, fed incrementally.
class Fnv64 {
 public:
  void add(std::string_view bytes);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------- sink

/// A std::streambuf the server writes its responses into.  It hashes every
/// byte and every line separately, counts complete lines and, when
/// stamping is on, records the steady-clock time at which each line's
/// newline arrived.  The writer
/// (serve::Server, under its output mutex) is one thread at a time; the
/// line counter is atomic so a generator thread can read the backlog while
/// responses stream in.
class ResponseSink : public std::streambuf {
 public:
  /// Clears hash, count and stamps; `expected_lines` pre-sizes the stamp
  /// buffer so stamping never reallocates mid-measurement.
  void reset(bool stamping, std::size_t expected_lines = 0);

  std::uint64_t hash() const { return hash_.value(); }
  std::uint64_t lines() const {
    return lines_.load(std::memory_order_acquire);
  }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }
  /// FNV-1a of each complete line, newline included.
  const std::vector<std::uint64_t>& line_hashes() const { return line_hashes_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void take(std::string_view bytes);

  Fnv64 hash_;
  Fnv64 line_;
  std::atomic<std::uint64_t> lines_{0};
  bool stamping_ = false;
  std::vector<Clock::time_point> stamps_;
  std::vector<std::uint64_t> line_hashes_;
};

// ---------------------------------------------------------------- open loop

/// Fixed-rate schedule: request i is due at start + i / rate.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s);
  Clock::time_point due(std::size_t i) const;
  /// Sleeps, then spins, until request i is due.
  void wait_for(std::size_t i) const;

 private:
  Clock::time_point start_;
  std::chrono::nanoseconds interval_;
};

/// Per-request lateness of the generator (actual send time minus due
/// time, never negative) in microseconds.
double late_us(Clock::time_point due, Clock::time_point sent);

/// Latency of each request in ms, timed from its due time to the moment
/// its response line reached the sink.  Responses arrive in submission
/// order, so stamp i answers request i; both vectors must be equal length.
std::vector<double> latencies_from_due_ms(
    const std::vector<Clock::time_point>& due,
    const std::vector<Clock::time_point>& stamps);

// ---------------------------------------------------------------- decomposition

/// One simulated run split at stop::run's public calls, in ms, with the
/// replayed layer costs of its event loop in ns.
struct RunSplit {
  double run_ms = 0;      // stop::run wall time, timed on its own
  double prepare_ms = 0;  // Problem::validate, Frame::whole, Algorithm::prepare
  double build_ms = 0;    // MachineConfig::make_runtime
  double loop_ms = 0;     // spawn + Runtime::run
  double verify_ms = 0;   // stop::verify_broadcast
  double reserve_ns = 0;  // net::NetworkModel::reserve replay
  double queue_ns = 0;    // sim::EventQueue push/pop replay
  double merge_ns = 0;    // mp::Payload::merge replay
};

struct Shares {
  double reserve = 0;
  double queue = 0;
  double merge = 0;
  double residual = 0;  // 1 - the three above
  /// |prepare + build + loop + verify - run| / run.
  double decomposition_error = 0;
};
Shares shares_of(const RunSplit& s);

/// Run of several splits summed field by field.
RunSplit sum_splits(const std::vector<RunSplit>& splits);

// ---------------------------------------------------------------- results

/// Everything a workload reports.  Units live in the metric catalog
/// (catalog.h), not here.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable detail lines (stderr).
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& why, std::uint64_t count = 1);
  void note(const std::string& line) { notes.push_back(line); }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The final result line: exactly {correct, attempted, failed, metrics},
/// with one entry per catalog metric (0 where the workload has none).
std::string result_json(const Report& r, const std::vector<MetricSpec>& specs);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Runs every self-test of this file; prints failures to stderr and
/// returns the number of failed checks.
int run_selftests();

}  // namespace spbbench
