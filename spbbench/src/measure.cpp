#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace spbbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------- stats

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon keeps q/100 * n from rounding up past an exact integer
  // (99.9 / 100 * 10000 is 9990.000000000002 in binary floating point).
  const double k = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(k), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[k - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double tail_percentile(std::size_t n) {
  for (const double q : {99.0, 98.0, 95.0, 90.0, 75.0})
    if (samples_beyond(n, q) >= 10) return q;
  return 50.0;
}

TailSummary summarize(const std::vector<double>& samples) {
  TailSummary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 50.0);
  s.tail_q = tail_percentile(samples.size());
  s.tail = percentile(samples, s.tail_q);
  return s;
}

// ---------------------------------------------------------------- hashing

void Fnv64::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- sink

void ResponseSink::reset(bool stamping, std::size_t expected_lines) {
  hash_ = Fnv64{};
  line_ = Fnv64{};
  lines_.store(0, std::memory_order_release);
  stamping_ = stamping;
  stamps_.clear();
  line_hashes_.clear();
  line_hashes_.reserve(expected_lines);
  if (stamping) stamps_.reserve(expected_lines);
}

void ResponseSink::take(std::string_view bytes) {
  hash_.add(bytes);
  std::uint64_t newlines = 0;
  Clock::time_point now{};
  while (!bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) {
      line_.add(bytes);
      break;
    }
    line_.add(bytes.substr(0, nl + 1));
    line_hashes_.push_back(line_.value());
    line_ = Fnv64{};
    if (stamping_) {
      if (newlines == 0) now = Clock::now();
      stamps_.push_back(now);
    }
    ++newlines;
    bytes.remove_prefix(nl + 1);
  }
  if (newlines != 0) lines_.fetch_add(newlines, std::memory_order_acq_rel);
}

ResponseSink::int_type ResponseSink::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
  const char c = traits_type::to_char_type(ch);
  take(std::string_view(&c, 1));
  return ch;
}

std::streamsize ResponseSink::xsputn(const char* s, std::streamsize n) {
  take(std::string_view(s, static_cast<std::size_t>(n)));
  return n;
}

// ---------------------------------------------------------------- open loop

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s)
    : start_(start),
      interval_(std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::llround(1e9 / rate_per_s)))) {}

Clock::time_point OpenLoopSchedule::due(std::size_t i) const {
  return start_ + interval_ * static_cast<std::int64_t>(i);
}

void OpenLoopSchedule::wait_for(std::size_t i) const {
  const Clock::time_point t = due(i);
  // Sleep while more than 200 us remain (the kernel wakes us ~60 us late
  // at worst on an idle core), then spin for precision.
  constexpr auto kSpinWindow = std::chrono::microseconds(200);
  if (Clock::now() + kSpinWindow < t) std::this_thread::sleep_until(t - kSpinWindow);
  while (Clock::now() < t) {
  }
}

double late_us(Clock::time_point due, Clock::time_point sent) {
  return std::max(
      0.0, std::chrono::duration<double, std::micro>(sent - due).count());
}

std::vector<double> latencies_from_due_ms(
    const std::vector<Clock::time_point>& due,
    const std::vector<Clock::time_point>& stamps) {
  std::vector<double> out;
  const std::size_t n = std::min(due.size(), stamps.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(
        std::chrono::duration<double, std::milli>(stamps[i] - due[i]).count());
  return out;
}

// ---------------------------------------------------------------- decomposition

Shares shares_of(const RunSplit& s) {
  Shares out;
  const double loop_ns = s.loop_ms * 1e6;
  if (loop_ns > 0) {
    out.reserve = s.reserve_ns / loop_ns;
    out.queue = s.queue_ns / loop_ns;
    out.merge = s.merge_ns / loop_ns;
    out.residual = 1.0 - out.reserve - out.queue - out.merge;
  }
  if (s.run_ms > 0) {
    const double parts = s.prepare_ms + s.build_ms + s.loop_ms + s.verify_ms;
    out.decomposition_error = std::fabs(parts - s.run_ms) / s.run_ms;
  }
  return out;
}

RunSplit sum_splits(const std::vector<RunSplit>& splits) {
  RunSplit t;
  for (const RunSplit& s : splits) {
    t.run_ms += s.run_ms;
    t.prepare_ms += s.prepare_ms;
    t.build_ms += s.build_ms;
    t.loop_ms += s.loop_ms;
    t.verify_ms += s.verify_ms;
    t.reserve_ns += s.reserve_ns;
    t.queue_ns += s.queue_ns;
    t.merge_ns += s.merge_ns;
  }
  return t;
}

// ---------------------------------------------------------------- results

void Report::fail(const std::string& why, std::uint64_t count) {
  correct = false;
  failed += count;
  notes.push_back("FAILED: " + why);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Report& r,
                        const std::vector<MetricSpec>& specs) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = r.metrics.find(spec.name);
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(spec.name).append("\": {\"value\": ");
    out.append(json_number(value)).append(", \"unit\": \"");
    out.append(spec.unit).append("\"}");
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace spbbench
