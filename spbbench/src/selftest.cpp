// Self-tests of the measurement code in measure.cpp.  spbbench runs them
// before every measurement and refuses to report when one fails;
// `spbbench --selftest` runs them alone.
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"

namespace spbbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentile_rule() {
  // Nearest rank: p99 of 1..1000 is 990 with exactly 10 samples beyond.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(near(percentile(v, 99), 990), "p99 of 1..1000 is 990");
  expect(near(percentile(v, 50), 500), "p50 of 1..1000 is 500");
  expect(samples_beyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  expect(samples_beyond(999, 99) == 9, "9 samples beyond p99 of 999");
  // The tail rule picks the highest percentile with >= 10 beyond.
  expect(tail_percentile(100000) == 99.0, "the rule stops at p99");
  expect(tail_percentile(1000) == 99.0, "1000 samples support p99");
  expect(tail_percentile(999) == 98.0, "999 samples stop at p98");
  expect(tail_percentile(200) == 95.0, "200 samples support p95");
  expect(tail_percentile(100) == 90.0, "100 samples support p90");
  expect(tail_percentile(15) == 50.0, "15 samples support only the median");
  const TailSummary s = summarize(v);
  expect(s.n == 1000 && s.tail_q == 99.0 && near(s.tail, 990),
         "summary reports p99 = 990 for 1..1000");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

void test_sink() {
  ResponseSink sink;
  std::ostream out(&sink);
  sink.reset(true, 4);
  const Clock::time_point before = Clock::now();
  out << "{\"id\":0}\n";
  out.flush();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  out << "{\"id\":1}\n{\"id\":2}\n";
  out << "{\"id\":";
  out << "3}\n";
  out.flush();
  expect(sink.lines() == 4, "sink counts four lines");
  expect(sink.stamps().size() == 4, "sink stamps every line");
  if (sink.stamps().size() == 4) {
    expect(sink.stamps()[0] >= before, "stamp follows the write");
    expect(sink.stamps()[1] - sink.stamps()[0] >=
               std::chrono::milliseconds(2),
           "second stamp taken after the pause");
    expect(sink.stamps()[1] == sink.stamps()[2],
           "lines of one write share a stamp");
    expect(sink.stamps()[3] >= sink.stamps()[2], "stamps are ordered");
  }
  Fnv64 h;
  h.add("{\"id\":0}\n{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n");
  expect(sink.hash() == h.value(), "sink hash equals the hash of the bytes");
  Fnv64 l3;
  l3.add("{\"id\":3}\n");
  expect(sink.line_hashes().size() == 4 && sink.line_hashes()[3] == l3.value(),
         "a line written in two pieces hashes as one line");
  Fnv64 empty;
  expect(empty.value() == 0xcbf29ce484222325ULL, "FNV-1a offset basis");
  Fnv64 a;
  a.add("a");
  expect(a.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");
  sink.reset(false);
  out << "x\n";
  out.flush();
  expect(sink.lines() == 1 && sink.stamps().empty(),
         "reset clears; stamping off records no stamps");
}

void test_open_loop() {
  const Clock::time_point t0 = Clock::now();
  const OpenLoopSchedule sched(t0, 1000.0);  // one request per ms
  expect(sched.due(0) == t0, "request 0 is due at the start");
  expect(sched.due(5) - t0 == std::chrono::milliseconds(5),
         "request 5 is due 5 ms in");
  sched.wait_for(3);
  expect(Clock::now() >= sched.due(3), "wait_for returns no earlier than due");
  // Lateness: sent after due counts, early sends count zero.
  expect(near(late_us(t0, t0 + std::chrono::microseconds(250)), 250.0),
         "250 us late");
  expect(near(late_us(t0 + std::chrono::microseconds(10), t0), 0.0),
         "an early send is not late");
  // Latency is taken from the due time, so a stalled generator's delay
  // lands on the requests it held back.
  const std::vector<Clock::time_point> due = {
      t0, t0 + std::chrono::milliseconds(1), t0 + std::chrono::milliseconds(2)};
  const std::vector<Clock::time_point> stamps = {
      t0 + std::chrono::microseconds(500), t0 + std::chrono::milliseconds(4),
      t0 + std::chrono::milliseconds(4)};
  const std::vector<double> lat = latencies_from_due_ms(due, stamps);
  expect(lat.size() == 3 && near(lat[0], 0.5) && near(lat[1], 3.0) &&
             near(lat[2], 2.0),
         "latency runs from due time to the response stamp");
}

void test_decomposition() {
  RunSplit s;
  s.run_ms = 10.0;
  s.prepare_ms = 0.5;
  s.build_ms = 0.25;
  s.loop_ms = 8.0;
  s.verify_ms = 0.75;
  s.reserve_ns = 2e6;  // 2 ms of an 8 ms loop
  s.queue_ns = 1e6;
  s.merge_ns = 0.4e6;
  const Shares sh = shares_of(s);
  expect(near(sh.reserve, 0.25) && near(sh.queue, 0.125) &&
             near(sh.merge, 0.05),
         "layer shares are replayed ns over loop ns");
  expect(near(sh.residual, 0.575), "residual is one minus the shares");
  expect(near(sh.decomposition_error, 0.05),
         "decomposition error is |parts - run| / run");
  const RunSplit t = sum_splits({s, s});
  expect(near(t.loop_ms, 16.0) && near(t.reserve_ns, 4e6),
         "splits sum field by field");
  expect(near(shares_of(t).residual, sh.residual),
         "shares of a sum of equal splits are unchanged");
}

void test_result_json() {
  Report r;
  r.attempted = 3;
  r.set("b", 0.125);
  const std::string j =
      result_json(r, {{"a", "ms"}, {"b", "s"}});
  expect(j == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"a\": {\"value\": 0, \"unit\": \"ms\"}, "
              "\"b\": {\"value\": 0.125, \"unit\": \"s\"}}}",
         "result line has exactly the four keys, catalog order and units");
  r.fail("x", 2);
  expect(!r.correct && r.failed == 2, "fail() counts and clears correct");
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_percentile_rule();
  test_sink();
  test_open_loop();
  test_decomposition();
  test_result_json();
  return failures;
}

}  // namespace spbbench
