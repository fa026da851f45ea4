// serve_hot and serve_cold: plan-request sessions through an in-process
// serve::Server with nproc - 1 workers, plus one generator thread.
//
// serve_hot draws from the 32-template pool ext_serve uses on paragon8x8,
// so after warm-up every lookup hits: parse, source generation, signature,
// cache hit, formatting, the queue and the reorder buffer do all the work.
// serve_cold draws uniformly from more distinct signatures than the
// default cache holds (4096), on paragon8x8 and t3d512, with about one
// request in 50 an execute: misses, inserts, evictions, the planner and the
// simulator dominate.
//
// Each workload runs an open loop at a fixed offered rate below capacity
// for latency, timed from each request's due time to the moment its
// response line reaches a ResponseSink, then a closed loop
// (submit_line_wait, as `spb_serve < file` does) for throughput.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "dist/distribution.h"
#include "dist/signature.h"
#include "machine/config.h"
#include "plan/planner.h"
#include "plan/sharded_cache.h"
#include "plan/signature.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"
#include "workloads.h"

namespace spbbench {

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace)

constexpr const char* kMachine = "paragon8x8";

struct Stream {
  const char* name = "";
  std::vector<std::string> warmup;  // fills the cache before timing
  /// One request line.  Lines with the same "id" are the same request
  /// (they may differ only in fields the signature ignores), so they must
  /// be answered byte-identically.
  std::function<std::string(Rng&)> draw;
  std::size_t pass_size = 0;
  double open_rate = 0;  // offered requests/s of the open loop
  std::uint64_t seed = 0;

  /// Pass k: `n` draws, the same for the same seed and k.  Every pass of a
  /// run has its own k, so the cold stream keeps missing at its
  /// steady-state rate instead of replaying a pass it has just cached.
  std::vector<std::string> pass(std::uint64_t k, std::size_t n) const {
    Rng rng(dist::hash_mix(seed, k));
    std::vector<std::string> lines;
    lines.reserve(n);
    for (std::size_t i = 0; i < n; ++i) lines.push_back(draw(rng));
    return lines;
  }
};

std::string request_line(std::uint64_t id, const char* op,
                         const std::string& machine, const std::string& dist,
                         int sources, Bytes len, std::uint64_t dist_seed) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"op\":\"" << op << "\"";
  if (!machine.empty()) os << ",\"machine\":\"" << machine << "\"";
  os << ",\"dist\":\"" << dist << "\",\"sources\":" << sources
     << ",\"len\":" << len << ",\"seed\":" << dist_seed << "}";
  return os.str();
}

/// ext_serve's template pool: 32 seeded templates, each request picks one
/// and jitters its length within the same length bucket.  The id is the
/// template's index.
Stream hot_stream(std::uint64_t seed) {
  const machine::MachineConfig mc = machine::from_name(kMachine);
  const int s_pool[] = {std::max(1, mc.p / 8), std::max(1, mc.p / 4),
                        std::max(1, (3 * mc.p) / 8), std::max(1, mc.p / 2)};
  const Bytes len_pool[] = {512, 1024, 6144, 32768};
  const auto& kinds = dist::all_kinds();
  struct Template {
    std::string dist;
    int sources;
    Bytes len;
    std::uint64_t dist_seed;
  };
  Rng pool_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  auto pool = std::make_shared<std::vector<Template>>();
  for (int i = 0; i < 32; ++i) {
    Template t;
    t.dist = dist::kind_name(kinds[pool_rng.next_below(kinds.size())]);
    t.sources = s_pool[pool_rng.next_below(4)];
    t.len = len_pool[pool_rng.next_below(4)];
    t.dist_seed = 1 + pool_rng.next_below(4);
    pool->push_back(t);
  }
  Stream st;
  st.name = "serve_hot";
  st.pass_size = 16000;
  st.open_rate = 16000.0;
  st.seed = seed;
  for (std::size_t i = 0; i < pool->size(); ++i) {
    const Template& t = (*pool)[i];
    st.warmup.push_back(
        request_line(i, "plan", "", t.dist, t.sources, t.len, t.dist_seed));
  }
  st.draw = [pool](Rng& rng) {
    const std::size_t i = rng.next_below(pool->size());
    const Template& t = (*pool)[i];
    const Bytes len = t.len + static_cast<Bytes>(rng.next_below(
                                  static_cast<std::uint64_t>(t.len / 8 + 1)));
    return request_line(i, "plan", "", t.dist, t.sources, len, t.dist_seed);
  };
  return st;
}

/// 5120 distinct signatures (1.25x the default cache capacity): Rand
/// sources whose placement seed differs per entry, one in eight on
/// t3d512.  Source counts stay well below p so no two seeds can draw the
/// same set.  Warm-up plans every entry once; requests then sample
/// uniformly, so about four lookups in five hit and every miss evicts.
/// One request in 50 is an execute.  The id is 2 * entry + (execute).
Stream cold_stream(std::uint64_t seed) {
  struct Entry {
    std::string machine;
    int sources;
    Bytes len;
    std::uint64_t dist_seed;
  };
  constexpr std::size_t kPool = 5120;
  const int s_pool[] = {8, 12, 16, 24};
  const Bytes len_pool[] = {1024, 4096, 16384};
  Rng rng(seed ^ 0xc01dc01dULL);
  auto pool = std::make_shared<std::vector<Entry>>();
  for (std::size_t i = 0; i < kPool; ++i) {
    Entry e;
    e.machine = rng.next_below(8) == 0 ? "t3d512" : "";
    e.sources = s_pool[rng.next_below(4)];
    e.len = len_pool[rng.next_below(3)];
    e.dist_seed = 1 + seed * kPool + i;
    pool->push_back(e);
  }
  Stream st;
  st.name = "serve_cold";
  st.pass_size = 2000;
  st.open_rate = 2000.0;
  st.seed = seed;
  for (std::size_t i = 0; i < pool->size(); ++i) {
    const Entry& e = (*pool)[i];
    st.warmup.push_back(request_line(2 * i, "plan", e.machine, "Rand",
                                     e.sources, e.len, e.dist_seed));
  }
  st.draw = [pool](Rng& rng) {
    const std::size_t i = rng.next_below(pool->size());
    const bool execute = rng.next_below(50) == 0;
    const Entry& e = (*pool)[i];
    return request_line(2 * i + (execute ? 1 : 0),
                        execute ? "execute" : "plan", e.machine, "Rand",
                        e.sources, e.len, e.dist_seed);
  };
  return st;
}

/// Checks that every answer to a request id matches the first answer to
/// it in this run: responses are pure functions of the request, whether a
/// worker planned it, hit the cache, or re-planned it after an eviction.
class Consistency {
 public:
  /// Responses that differ from the first answer to their id.
  std::uint64_t check(const std::vector<std::string>& lines,
                      const std::vector<std::uint64_t>& hashes) {
    std::uint64_t bad = hashes.size() == lines.size() ? 0 : 1;
    for (std::size_t i = 0; i < std::min(lines.size(), hashes.size()); ++i) {
      const std::uint64_t id =
          std::strtoull(lines[i].c_str() + std::strlen("{\"id\":"), nullptr, 10);
      const auto [it, fresh] = first_.emplace(id, hashes[i]);
      if (!fresh && it->second != hashes[i]) ++bad;
    }
    return bad;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> first_;
};

/// One server with its sink; responses flow into the sink, never a string.
struct Session {
  ResponseSink sink;
  std::ostream out{&sink};
  std::unique_ptr<serve::Server> server;

  explicit Session(int workers) {
    serve::ServerOptions o;
    o.machine = kMachine;
    o.workers = workers;
    server = std::make_unique<serve::Server>(o, out);
  }

  void submit_all(const std::vector<std::string>& lines) {
    for (const std::string& l : lines) server->submit_line_wait(l);
    server->drain();
  }

  /// One closed-loop pass; returns requests/s.
  double closed_pass(const std::vector<std::string>& lines, bool stamping) {
    sink.reset(stamping, lines.size());
    const Clock::time_point t0 = Clock::now();
    submit_all(lines);
    return static_cast<double>(lines.size()) /
           seconds_between(t0, Clock::now());
  }
};

struct OpenLoop {
  std::vector<double> latency_ms;
  std::vector<double> late_us;
  std::uint64_t max_in_flight = 0;
};

OpenLoop open_pass(Session& s, const std::vector<std::string>& lines,
                   double rate) {
  OpenLoop r;
  s.sink.reset(true, lines.size());
  std::vector<Clock::time_point> due(lines.size());
  r.late_us.reserve(lines.size());
  const OpenLoopSchedule sched(Clock::now() + std::chrono::milliseconds(1),
                               rate);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    sched.wait_for(i);
    const Clock::time_point sent = Clock::now();
    due[i] = sched.due(i);
    r.late_us.push_back(late_us(due[i], sent));
    const std::uint64_t answered = std::min<std::uint64_t>(i, s.sink.lines());
    r.max_in_flight = std::max<std::uint64_t>(r.max_in_flight, i - answered);
    s.server->submit_line_wait(lines[i]);
  }
  s.server->drain();
  r.latency_ms = latencies_from_due_ms(due, s.sink.stamps());
  return r;
}

void check_counters(const serve::Server& server, const char* what,
                    Report& rep) {
  const serve::RequestCounters c = server.counters();
  if (c.errors + c.shed != 0)
    rep.fail(std::string(what) + ": " + std::to_string(c.errors) +
                 " errors, " + std::to_string(c.shed) + " shed",
             c.errors + c.shed);
}

void check_hash(std::uint64_t got, std::uint64_t want, const std::string& what,
                Report& rep) {
  if (got != want)
    rep.fail(what + ": transcript hash " + hex64(got) + " != " + hex64(want));
}

// ------------------------------------------------------------ stage replay

struct StageTimes {
  double parse_us = 0, generate_us = 0, signature_us = 0, lookup_us = 0,
         planner_us = 0, execute_ms = 0, format_us = 0;
  std::size_t requests = 0, executes = 0;
  plan::CacheStats cache;
  std::uint64_t hash = 0;
};

/// The server's per-request work, single-threaded, through the public
/// stage functions.  Warm-up lines go through the same cache untimed, so
/// the pass meets the cache state a one-worker server would.
StageTimes replay_stages(const Stream& st,
                         const std::vector<std::string>& pass) {
  plan::ShardedPlanCache cache(serve::ServerOptions{}.cache_capacity,
                               serve::ServerOptions{}.cache_shards);
  std::map<std::string, std::unique_ptr<plan::Planner>> planners;
  const auto planner_for = [&](const std::string& m) -> const plan::Planner& {
    const std::string key = m.empty() ? kMachine : m;
    auto& slot = planners[key];
    if (!slot) slot = std::make_unique<plan::Planner>(machine::from_name(key));
    return *slot;
  };
  planner_for(kMachine);

  StageTimes t;
  Fnv64 hash;
  const auto serve_one = [&](const std::string& line, bool timed) {
    Clock::time_point c = Clock::now();
    const auto lap = [&c] {
      const Clock::time_point now = Clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(now - c).count();
      c = now;
      return us;
    };
    serve::Request req;
    const std::string err = serve::parse_request(line, req);
    SPB_CHECK_MSG(err.empty(), err);
    const double parse = lap();
    const plan::Planner& planner = planner_for(req.machine);
    const machine::MachineConfig& mc = planner.machine();
    const int s = req.sources != 0 ? req.sources : std::max(2, mc.p / 4);
    c = Clock::now();
    const std::vector<Rank> sources =
        dist::generate(dist::kind_from_name(req.dist),
                       dist::Grid{mc.rows, mc.cols}, s, req.seed);
    const double generate = lap();
    const plan::Signature sig =
        plan::make_signature(mc, sources, req.len, req.dist, req.faults);
    const double signature = lap();
    double planner_us = 0;
    const std::shared_ptr<const plan::Plan> plan =
        cache.plan_shared(sig, [&] {
          const Clock::time_point p0 = Clock::now();
          plan::Plan out = planner.plan(sources, req.len, req.dist, req.faults);
          planner_us = std::chrono::duration<double, std::micro>(
                           Clock::now() - p0)
                           .count();
          return out;
        });
    const double lookup = lap() - planner_us;
    double execute_ms = 0;
    std::string text;
    if (req.op == serve::Op::kExecute) {
      const stop::AlgorithmPtr alg = stop::find_algorithm(plan->best());
      const stop::RunResult result =
          stop::run(*alg, stop::make_problem(mc, sources, req.len));
      execute_ms = lap() / 1e3;
      serve::write_execute_response(text, req.id, req, alg->name(), result);
    } else {
      serve::write_plan_response(text, req.id, req, *plan);
    }
    const double format = lap();
    if (!timed) return;
    hash.add(text);
    t.parse_us += parse;
    t.generate_us += generate;
    t.signature_us += signature;
    t.lookup_us += lookup;
    t.planner_us += planner_us;
    t.execute_ms += execute_ms;
    t.format_us += format;
    ++t.requests;
    if (req.op == serve::Op::kExecute) ++t.executes;
  };
  for (const std::string& l : st.warmup) serve_one(l, false);
  const plan::CacheStats before = cache.stats();
  for (const std::string& l : pass) serve_one(l, true);
  const plan::CacheStats after = cache.stats();
  t.cache.hits = after.hits - before.hits;
  t.cache.misses = after.misses - before.misses;
  t.cache.evictions = after.evictions - before.evictions;
  t.hash = hash.value();
  return t;
}

/// Runs one pass of `lines` through a session and checks every response
/// against the first answer to its id; returns requests/s.
double checked_pass(Session& s, const std::vector<std::string>& lines,
                    bool stamping, Consistency& consistency, Report& rep,
                    const std::string& what) {
  const double rate = s.closed_pass(lines, stamping);
  rep.attempted += lines.size();
  const std::uint64_t bad = consistency.check(lines, s.sink.line_hashes());
  if (bad != 0)
    rep.fail(what + ": " + std::to_string(bad) +
                 " responses differ from earlier answers to the same request",
             bad);
  return rate;
}

Report run_stream(const Stream& st, const RunArgs& args) {
  Report rep;
  const int workers = std::max(1, args.nproc - 1);
  Consistency consistency;

  // Set-up: Server construction, including its eager default planner.
  std::vector<double> setups;
  std::unique_ptr<Session> s;
  for (int k = 0; k < 25; ++k) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = std::make_unique<Session>(workers);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  s->submit_all(st.warmup);
  const plan::CacheStats warm = s->server->cache_stats();

  // Open loop first, in bursts of fresh requests at the stream's fixed
  // rate, each after a short idle gap (a burst that directly follows
  // saturating work inherits the host scheduler's penalty for it).  Then
  // the closed-loop passes.  Pass k is the same in every run of a seed.
  constexpr std::size_t kBurst = 1000;
  constexpr std::uint64_t kBurstPasses = 1u << 20;  // burst k is pass 2^20+k
  const double budget = args.seconds * (args.trace ? 0.3 : 0.85);
  std::vector<double> rates, latency, late;
  std::uint64_t max_in_flight = 0, bursts = 0;
  const Clock::time_point open_end = after(budget * 0.5);
  do {
    const std::vector<std::string> lines =
        st.pass(kBurstPasses + bursts, kBurst);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const OpenLoop o = open_pass(*s, lines, st.open_rate);
    ++bursts;
    rep.attempted += lines.size();
    const std::uint64_t bad =
        consistency.check(lines, s->sink.line_hashes());
    if (bad != 0) rep.fail("open-loop burst: inconsistent responses", bad);
    latency.insert(latency.end(), o.latency_ms.begin(), o.latency_ms.end());
    late.insert(late.end(), o.late_us.begin(), o.late_us.end());
    max_in_flight = std::max(max_in_flight, o.max_in_flight);
  } while (Clock::now() < open_end || bursts < 3);

  std::vector<std::uint64_t> pass_hash;
  const Clock::time_point closed_end = after(budget * 0.5);
  do {
    const std::vector<std::string> lines = st.pass(rates.size(), st.pass_size);
    rates.push_back(checked_pass(*s, lines, false, consistency, rep,
                                 "closed pass"));
    pass_hash.push_back(s->sink.hash());
  } while (Clock::now() < closed_end || rates.size() < 3);
  const plan::CacheStats closed_cache = s->server->cache_stats();
  check_counters(*s->server, "nproc-1 worker session", rep);

  const TailSummary lat = summarize(latency);
  const TailSummary gen = summarize(late);
  rep.note(std::string(st.name) + ": " + std::to_string(bursts) +
           " open-loop bursts of " + std::to_string(kBurst) + " at " +
           std::to_string(st.open_rate) + " req/s, latency over " +
           std::to_string(lat.n) + " requests, tail p" +
           std::to_string(lat.tail_q) + "; generator late p50 " +
           std::to_string(gen.p50) + " us, p" + std::to_string(gen.tail_q) +
           " " + std::to_string(gen.tail) + " us");
  rep.note(std::string(st.name) + ": " + std::to_string(rates.size()) +
           " closed passes of " + std::to_string(st.pass_size) +
           " requests at " + std::to_string(workers) +
           " workers, median " + std::to_string(median(rates)) +
           " req/s; pass 0 transcript " + hex64(pass_hash[0]));

  // One worker must answer byte-identically.  Cheap on the hot stream, so
  // every run checks it; the cold stream's warm-up costs seconds on one
  // worker, so only its traced run does.
  const bool hot = st.warmup.size() < 1000;
  double one_worker_rate = 0;
  if (hot || args.trace) {
    Session one(1);
    one.submit_all(st.warmup);
    std::vector<double> r1;
    for (std::uint64_t k = 0; k < (hot ? 3u : 1u); ++k) {
      r1.push_back(checked_pass(one, st.pass(k, st.pass_size), false,
                                consistency, rep, "one-worker pass"));
      check_hash(one.sink.hash(), pass_hash[k],
                 "one-worker pass " + std::to_string(k), rep);
    }
    check_counters(*one.server, "one-worker session", rep);
    one_worker_rate = median(r1);
  }

  if (!args.trace) {
    rep.set("setup_s", median(setups));
    rep.set("ops_per_s", median(rates));
    rep.set("latency_p50_ms", lat.p50);
    rep.set("latency_p99_ms", lat.tail);
    return rep;
  }

  // Traced: stage replay of pass 0, one-worker overhead, cache and
  // generator figures.
  const StageTimes t = replay_stages(st, st.pass(0, st.pass_size));
  check_hash(t.hash, pass_hash[0], "single-threaded stage replay", rep);
  const double n = static_cast<double>(t.requests);
  const double service_us = (t.parse_us + t.generate_us + t.signature_us +
                             t.lookup_us + t.planner_us +
                             t.execute_ms * 1e3 + t.format_us) /
                            n;
  rep.set("serve.parse_us", t.parse_us / n);
  rep.set("dist.generate_us", t.generate_us / n);
  rep.set("plan.signature_us", t.signature_us / n);
  rep.set("plan.cache_lookup_us", t.lookup_us / n);
  rep.set("plan.planner_us", t.planner_us / n);
  rep.set("stop.execute_ms", t.executes == 0
                                 ? 0.0
                                 : t.execute_ms /
                                       static_cast<double>(t.executes));
  rep.set("serve.format_us", t.format_us / n);
  rep.set("serve.service_us", service_us);
  rep.set("serve.overhead_us", 1e6 / one_worker_rate - service_us);
  rep.set("serve.scaling", median(rates) / one_worker_rate);
  rep.set("plan.hit_rate", t.cache.hit_rate());
  rep.set("plan.misses", static_cast<double>(t.cache.misses));
  rep.set("plan.evictions", static_cast<double>(t.cache.evictions));
  rep.set("plan.coalesced",
          static_cast<double>(closed_cache.coalesced - warm.coalesced));
  rep.set("serve.queue_max_depth", static_cast<double>(max_in_flight));
  rep.set("serve.generator_late_us_p99", gen.tail);

  // The benchmark's own instrument on the serve path is the stamping
  // sink: compare closed passes with and without it.
  std::vector<double> plain, stamped;
  for (std::uint64_t k = 0; k < 3; ++k) {
    const std::uint64_t next = rates.size() + 2 * k;
    plain.push_back(checked_pass(*s, st.pass(next, st.pass_size), false,
                                 consistency, rep, "closed pass"));
    stamped.push_back(checked_pass(*s, st.pass(next + 1, st.pass_size), true,
                                   consistency, rep, "stamped closed pass"));
  }
  rep.set("trace.overhead_frac", 1.0 - median(stamped) / median(plain));

  std::ostringstream os;
  os.precision(4);
  os << st.name << " per request: parse " << t.parse_us / n << " us, generate "
     << t.generate_us / n << " us, signature " << t.signature_us / n
     << " us, cache " << t.lookup_us / n << " us, planner "
     << t.planner_us / n << " us, execute " << t.execute_ms * 1e3 / n
     << " us, format " << t.format_us / n << " us = service " << service_us
     << " us; one worker " << 1e6 / one_worker_rate << " us/request ("
     << one_worker_rate << " req/s); " << t.cache.hits << " hits, "
     << t.cache.misses << " misses, " << t.cache.evictions << " evictions";
  rep.note(os.str());
  return rep;
}

}  // namespace

Report run_serve_hot(const RunArgs& args) {
  return run_stream(hot_stream(args.seed), args);
}

Report run_serve_cold(const RunArgs& args) {
  return run_stream(cold_stream(args.seed), args);
}

}  // namespace spbbench
