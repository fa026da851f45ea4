// sim_batch: serial stop::run over a fixed mix of five large combos.  The
// simulator core (sim, mp, net, coll) does nearly all the work; plan,
// serve and analyze do none.  sim_auto runs the same mix under
// sim_threads(-1), each sharded run in a forked child (see run_isolated).
//
// The traced run splits each combo at stop::run's public calls (prepare,
// make_runtime, the event loop, verify_broadcast) and replays the loop's
// work through three layers' public APIs to estimate their shares:
// NetworkModel::reserve on the run's sends, EventQueue push/pop at the
// run's event count and peak depth, and Payload::merge at the run's
// receive count and source count.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "dist/distribution.h"
#include "machine/config.h"
#include "mp/payload.h"
#include "mp/runtime.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "stop/algorithm.h"
#include "stop/frame.h"
#include "stop/problem.h"
#include "stop/run.h"
#include "stop/verify.h"
#include "workloads.h"

namespace spbbench {

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace)

struct ComboSpec {
  const char* key;
  const char* algorithm;
  const char* dist;
  int sources;
  Bytes bytes;
};

/// The mix.  t3d512 Br_Lin Rand is the sharded engine's acceptance combo;
/// PersAlltoAll leans on mailbox matching; paragon32x32 Br_xy_source on
/// routing and contention; torus8x8x8 covers repositioning; cluster16x16
/// covers tiered links.
constexpr ComboSpec kCombos[] = {
    {"t3d512", "Br_Lin", "Rand", 64, 64 * 1024},
    {"t3d256", "PersAlltoAll", "R", 64, 4 * 1024},
    {"paragon32x32", "Br_xy_source", "B", 256, 8 * 1024},
    {"torus8x8x8", "Repos_xy_dim", "Cr", 128, 8 * 1024},
    {"cluster16x16", "Hier_Lin", "R", 64, 16 * 1024},
};
constexpr std::size_t kComboCount = std::size(kCombos);

/// What a speed-only change must leave identical.
struct Fingerprint {
  double makespan_us = 0;
  std::uint64_t events = 0;
  std::uint64_t transfers = 0;
  std::uint64_t hops = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const mp::RunOutcome& o) {
  return {o.makespan_us, o.events, o.network.transfers, o.network.total_hops};
}

std::string to_string(const Fingerprint& f) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "makespan %.17g us, %llu events, %llu transfers, %llu hops",
                f.makespan_us, static_cast<unsigned long long>(f.events),
                static_cast<unsigned long long>(f.transfers),
                static_cast<unsigned long long>(f.hops));
  return buf;
}

/// Serial fingerprints of the mix at seed 1, pinned from the program as it
/// stood when the benchmark was written.  Refresh with
/// `spbbench --print-pins 1` only for a change that is meant to alter
/// simulated behaviour.
constexpr std::uint64_t kPinSeed = 1;
const Fingerprint kPins[kComboCount] = {
    {198868.96571428573, 13712, 3300, 19755},   // t3d512
    {13153.428571428509, 49216, 16320, 98176},  // t3d256
    {47599.926000000007, 36864, 8960, 47104},   // paragon32x32
    {34904.314285714288, 16636, 4052, 9090},    // torus8x8x8
    {70898.379000000001, 1236, 320, 668},       // cluster16x16
};

struct Combo {
  const ComboSpec* spec = nullptr;
  stop::Problem problem;
  stop::AlgorithmPtr algorithm;
};

/// The seed picks the T3D's virtual-to-physical scatter and the Rand
/// source placement; the other families are seed-free by definition.
std::vector<Combo> build_combos(std::uint64_t seed) {
  const std::uint64_t s = std::max<std::uint64_t>(seed, 1);
  std::vector<Combo> out;
  for (const ComboSpec& spec : kCombos) {
    std::string name = spec.key;
    if (name.rfind("t3d", 0) == 0) name.append(":").append(std::to_string(s));
    machine::MachineConfig mc = machine::from_name(name);
    Combo c;
    c.spec = &spec;
    c.problem = stop::make_problem(std::move(mc), dist::kind_from_name(spec.dist),
                                   spec.sources, spec.bytes, s);
    c.algorithm = stop::find_algorithm(spec.algorithm);
    out.push_back(std::move(c));
  }
  return out;
}

stop::RunResult run_combo(const Combo& c, int sim_threads) {
  return stop::run(*c.algorithm, c.problem,
                   stop::RunConfig{}.sim_threads(sim_threads));
}

/// One timed run; verification stays on (stop::run throws CheckError when
/// the broadcast is wrong).  Returns false and records the failure when the
/// run throws or its result differs from `ref`.  Serial runs must match all
/// four fingerprint fields.  Sharded runs must match makespan, transfers
/// and hops; their event count is not yet scheduling-independent on
/// multi-core hosts, so a differing count is tallied in par.events_drift
/// and reported instead of failing the run.
bool checked_run(const Combo& c, int sim_threads, const Fingerprint& ref,
                 Report& rep, double* wall_ms) {
  ++rep.attempted;
  try {
    const Clock::time_point t0 = Clock::now();
    const stop::RunResult r = run_combo(c, sim_threads);
    if (wall_ms != nullptr) *wall_ms = ms_since(t0);
    Fingerprint f = fingerprint_of(r.outcome);
    if (sim_threads != 0 && f.events != ref.events) {
      rep.metrics["par.events_drift"] += 1;
      rep.note(std::string(c.spec->key) + " (sim_threads " +
               std::to_string(sim_threads) + ") event count " +
               std::to_string(f.events) + " != first sharded run's " +
               std::to_string(ref.events));
      f.events = ref.events;
    }
    if (!(f == ref)) {
      rep.fail(std::string(c.spec->key) + " (sim_threads " +
               std::to_string(sim_threads) + ") fingerprint " + to_string(f) +
               " != reference " + to_string(ref));
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    rep.fail(std::string(c.spec->key) + ": " + e.what());
    return false;
  }
}

struct Setup {
  std::vector<Combo> combos;
  std::vector<Fingerprint> serial;
  /// Makespan of each combo under sim_threads(-1), NaN until a sharded run
  /// has reported it (the sharded engine may legally order same-time
  /// cross-region reserves differently from the serial loop).
  std::vector<double> auto_makespan;

  Fingerprint auto_ref(std::size_t i) const {
    Fingerprint f = serial[i];
    f.makespan_us = auto_makespan[i];
    return f;
  }
};

/// Builds machines and problems and runs each combo once, so lazy state
/// (route caches, allocator pools) is warm before timing.
Setup set_up(std::uint64_t seed) {
  Setup s;
  s.combos = build_combos(seed);
  for (const Combo& c : s.combos)
    s.serial.push_back(fingerprint_of(run_combo(c, 0).outcome));
  s.auto_makespan.assign(s.combos.size(), std::nan(""));
  return s;
}

// ------------------------------------------------------------ sharded runs

/// Every sim_threads(-1) run happens in a forked child: on a multi-core
/// host the sharded engine can crash (a pool worker that wakes after its
/// window has been drained can claim a shard of the next window).  The
/// child streams its results back line by line; a child that dies costs
/// one failed run, and the work resumes in a fresh child, which inherits
/// everything the parent has learnt so far.
using Emit = std::function<void(const std::string&)>;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Sends a child's partial report to the parent and clears it.
void ship(Report& r, const Emit& emit) {
  emit("A " + std::to_string(r.attempted));
  emit("X " + std::to_string(r.failed));
  for (const auto& [name, value] : r.metrics) emit("M " + name + " " + num(value));
  for (const std::string& n : r.notes) emit("N " + n);
  r = Report{};
}

/// Parent side of ship(); returns false for lines it does not know.
bool absorb(const std::string& line, Report& rep) {
  if (line.size() < 2) return false;
  const std::string rest = line.substr(2);
  switch (line[0]) {
    case 'A':
      rep.attempted += std::stoull(rest);
      return true;
    case 'X': {
      const std::uint64_t n = std::stoull(rest);
      rep.failed += n;
      if (n != 0) rep.correct = false;
      return true;
    }
    case 'M': {
      const std::size_t sp = rest.find(' ');
      rep.metrics[rest.substr(0, sp)] += std::stod(rest.substr(sp + 1));
      return true;
    }
    case 'N':
      rep.notes.push_back(rest);
      return true;
    default:
      return false;
  }
}

/// Runs `body` in forked children until one exits normally; each line it
/// emits goes to `on_line`.
void run_isolated(const std::function<void(const Emit&)>& body,
                  const std::function<void(const std::string&)>& on_line,
                  Report& rep) {
  constexpr int kMaxDeaths = 8;
  for (int deaths = 0; deaths <= kMaxDeaths; ++deaths) {
    int fds[2];
    SPB_CHECK(pipe(fds) == 0);
    std::fflush(nullptr);
    const pid_t pid = fork();
    SPB_CHECK(pid >= 0);
    if (pid == 0) {
      close(fds[0]);
      FILE* out = fdopen(fds[1], "w");
      const Emit emit = [out](const std::string& l) {
        std::fputs(l.c_str(), out);
        std::fputc('\n', out);
        std::fflush(out);
      };
      int code = 0;
      try {
        body(emit);
      } catch (const std::exception& e) {
        emit(std::string("N child failed: ") + e.what());
        code = 1;
      }
      std::fclose(out);
      _exit(code);
    }
    close(fds[1]);
    FILE* in = fdopen(fds[0], "r");
    char* buf = nullptr;
    std::size_t cap = 0;
    ssize_t n = 0;
    while ((n = getline(&buf, &cap, in)) > 0) {
      std::string line(buf, static_cast<std::size_t>(n));
      if (!line.empty() && line.back() == '\n') line.pop_back();
      if (!absorb(line, rep)) on_line(line);
    }
    std::free(buf);
    std::fclose(in);
    int status = 0;
    waitpid(pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return;
    rep.attempted += 1;
    rep.fail(WIFSIGNALED(status)
                 ? "a sim_threads(-1) run died with signal " +
                       std::to_string(WTERMSIG(status))
                 : "a sim_threads(-1) child exited with status " +
                       std::to_string(WEXITSTATUS(status)));
  }
  rep.fail("sim_threads(-1) work abandoned after repeated deaths");
}

/// In a child: one checked sharded run of combo i; the first run of a
/// combo fixes its makespan reference and tells the parent ("K i value").
bool auto_run(Setup& s, std::size_t i, Report& r, double* ms,
              const Emit& emit) {
  if (std::isnan(s.auto_makespan[i])) {
    ++r.attempted;
    try {
      const stop::RunResult res = run_combo(s.combos[i], -1);
      s.auto_makespan[i] = res.outcome.makespan_us;
      emit("K " + std::to_string(i) + " " + num(s.auto_makespan[i]));
    } catch (const std::exception& e) {
      r.fail(std::string(s.combos[i].spec->key) + " (sim_threads -1): " +
             e.what());
      return false;
    }
  }
  return checked_run(s.combos[i], -1, s.auto_ref(i), r, ms);
}

/// Parent side of auto_run's "K" line.
bool absorb_ref(const std::string& line, Setup& s) {
  if (line.rfind("K ", 0) != 0) return false;
  std::istringstream is(line.substr(2));
  std::size_t i = 0;
  std::string v;
  is >> i >> v;
  s.auto_makespan[i] = std::stod(v);
  return true;
}

/// Whole serial passes over the mix for `budget_s`; returns runs/s of each
/// pass and appends every run's wall time to `latencies`.
std::vector<double> serial_passes(const Setup& s, double budget_s,
                                  Report& rep, std::vector<double>& latencies) {
  std::vector<double> rates;
  const Clock::time_point end = after(budget_s);
  do {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < s.combos.size(); ++i) {
      double ms = 0;
      if (checked_run(s.combos[i], 0, s.serial[i], rep, &ms))
        latencies.push_back(ms);
    }
    rates.push_back(static_cast<double>(s.combos.size()) /
                    seconds_between(t0, Clock::now()));
  } while (Clock::now() < end || rates.size() < 3);
  return rates;
}

/// The same under sim_threads(-1), in forked children.
std::vector<double> auto_passes(Setup& s, double budget_s, Report& rep,
                                std::vector<double>& latencies) {
  std::vector<double> rates;
  const Clock::time_point end = after(budget_s);
  run_isolated(
      [&](const Emit& emit) {
        std::size_t passes = rates.size();
        do {
          Report r;
          const Clock::time_point t0 = Clock::now();
          for (std::size_t i = 0; i < s.combos.size(); ++i) {
            double ms = 0;
            if (auto_run(s, i, r, &ms, emit)) emit("L " + num(ms));
          }
          emit("P " + num(static_cast<double>(s.combos.size()) /
                          seconds_between(t0, Clock::now())));
          ship(r, emit);
          ++passes;
        } while (Clock::now() < end || passes < 3);
      },
      [&](const std::string& line) {
        if (absorb_ref(line, s)) return;
        if (line.rfind("P ", 0) == 0) rates.push_back(std::stod(line.substr(2)));
        if (line.rfind("L ", 0) == 0)
          latencies.push_back(std::stod(line.substr(2)));
      },
      rep);
  return rates;
}

void check_pins(const Setup& s, std::uint64_t seed, Report& rep) {
  std::vector<Fingerprint> got = s.serial;
  if (seed != kPinSeed) {
    got.clear();
    for (const Combo& c : build_combos(kPinSeed))
      got.push_back(fingerprint_of(run_combo(c, 0).outcome));
  }
  for (std::size_t i = 0; i < kComboCount; ++i) {
    ++rep.attempted;
    if (!(got[i] == kPins[i]))
      rep.fail(std::string("pinned fingerprint of ") + kCombos[i].key +
               " at seed 1: got " + to_string(got[i]) + ", pinned " +
               to_string(kPins[i]));
  }
}

// ------------------------------------------------------------ traced run

/// stop::run taken apart at its public calls, each timed from outside.
RunSplit split_run(const Combo& c, const Fingerprint& ref, Report& rep) {
  RunSplit sp;
  const stop::Problem& pb = c.problem;
  Clock::time_point t = Clock::now();
  pb.validate();
  // Named, as in stop::run: the factory may refer to the frame.
  const stop::Frame frame = stop::Frame::whole(pb);
  const stop::ProgramFactory factory = c.algorithm->prepare(frame);
  sp.prepare_ms = ms_since(t);

  t = Clock::now();
  mp::Runtime rt = pb.machine.make_runtime(c.algorithm->mpi_flavored());
  sp.build_ms = ms_since(t);

  t = Clock::now();
  std::vector<mp::Payload> data(static_cast<std::size_t>(pb.p()));
  for (std::size_t i = 0; i < pb.sources.size(); ++i)
    data[static_cast<std::size_t>(pb.sources[i])] =
        mp::Payload::original(pb.sources[i], pb.bytes_of_source(i));
  for (Rank r = 0; r < pb.p(); ++r)
    rt.spawn(r, factory(rt.comm(r), data[static_cast<std::size_t>(r)]));
  const mp::RunOutcome outcome = rt.run();
  sp.loop_ms = ms_since(t);

  t = Clock::now();
  const stop::VerifyResult v = stop::verify_broadcast(pb, data);
  sp.verify_ms = ms_since(t);

  ++rep.attempted;
  if (!v.ok) rep.fail(std::string(c.spec->key) + " split run: " + v.error);
  if (!(fingerprint_of(outcome) == ref))
    rep.fail(std::string(c.spec->key) + " split run fingerprint " +
             to_string(fingerprint_of(outcome)));
  return sp;
}

template <typename F>
double median_ns(int reps, F&& body) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    body();
    ns.push_back(ms_since(t0) * 1e6);
  }
  return median(ns);
}

/// The run's sends, from a traced run, replayed through a fresh network.
double replay_reserve_ns(const Combo& c, const mp::Trace& trace) {
  struct Send {
    NodeId src, dst;
    Bytes bytes;
    SimTime ready;
  };
  const machine::MachineConfig& mc = c.problem.machine;
  std::vector<Send> sends;
  for (const mp::TraceEvent& e : trace.events()) {
    if (e.kind != mp::TraceEvent::Kind::kSend) continue;
    const NodeId a = mc.mapping.node_of(e.rank);
    const NodeId b = mc.mapping.node_of(e.peer);
    if (a != b) sends.push_back({a, b, e.wire_bytes, e.begin_us});
  }
  return median_ns(5, [&] {
    net::NetworkModel net(mc.topology, mc.net);
    for (const Send& s : sends) net.reserve(s.src, s.dst, s.bytes, s.ready);
  });
}

/// `events` pushes and pops through one EventQueue that holds up to
/// `peak` pending events, with the runtime's inline callback shape.
double replay_queue_ns(std::uint64_t events, std::size_t peak) {
  Rng rng(0x5eed);
  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.next_double() * 50.0;
  std::uint64_t fired = 0;
  const double ns = median_ns(5, [&] {
    sim::EventQueue q;
    std::uint64_t pushed = 0;
    for (; pushed < peak && pushed < events; ++pushed)
      q.push(delays[pushed % delays.size()], [&fired] { ++fired; });
    while (!q.empty()) {
      sim::Event e = q.pop();
      e.fn();
      if (pushed < events) {
        q.push(e.time + delays[pushed % delays.size()], [&fired] { ++fired; });
        ++pushed;
      }
    }
  });
  SPB_CHECK(fired == events * 5);
  return ns;
}

/// Every rank receives its s chunks in recvs/p disjoint, interleaved
/// messages and merges each into its buffer.
double replay_merge_ns(const stop::Problem& pb, std::uint64_t recvs) {
  const std::size_t p = static_cast<std::size_t>(pb.p());
  const std::size_t per_rank = std::max<std::size_t>(
      1, static_cast<std::size_t>((recvs + p / 2) / p));
  std::vector<std::vector<mp::Chunk>> parts(per_rank);
  for (std::size_t i = 0; i < pb.sources.size(); ++i)
    parts[i % per_rank].push_back({pb.sources[i], pb.bytes_of_source(i)});
  std::vector<mp::Payload> incoming;
  for (auto& chunks : parts) incoming.push_back(mp::Payload::of(chunks));
  std::size_t total = 0;
  const double ns = median_ns(5, [&] {
    for (std::size_t r = 0; r < p; ++r) {
      mp::Payload acc;
      for (const mp::Payload& m : incoming) acc.merge(m);
      total += acc.chunk_count();
    }
  });
  SPB_CHECK(total == 5 * p * pb.sources.size());
  return ns;
}

constexpr int kReps = 9;

void traced_serial(const Setup& s, Report& rep) {
  std::vector<RunSplit> splits;
  double decomposed_ms = 0, plain_ms = 0, worst_error = 0;
  std::uint64_t events = 0, sends = 0, bytes = 0, transfers = 0, hops = 0;
  double makespan = 0, stall = 0;
  std::size_t peak = 0;

  for (std::size_t i = 0; i < s.combos.size(); ++i) {
    const Combo& c = s.combos[i];
    std::vector<RunSplit> reps;
    std::vector<double> run_ms;
    for (int k = 0; k < kReps; ++k) {
      double ms = 0;
      checked_run(c, 0, s.serial[i], rep, &ms);
      run_ms.push_back(ms);
      plain_ms += ms;
      const Clock::time_point t0 = Clock::now();
      reps.push_back(split_run(c, s.serial[i], rep));
      decomposed_ms += ms_since(t0);
    }
    const auto field = [&](double RunSplit::*f) {
      std::vector<double> v;
      for (const RunSplit& r : reps) v.push_back(r.*f);
      return median(v);
    };
    RunSplit sp;
    sp.run_ms = median(run_ms);
    sp.prepare_ms = field(&RunSplit::prepare_ms);
    sp.build_ms = field(&RunSplit::build_ms);
    sp.loop_ms = field(&RunSplit::loop_ms);
    sp.verify_ms = field(&RunSplit::verify_ms);

    const stop::RunResult tr =
        stop::run(*c.algorithm, c.problem, stop::RunConfig{}.trace());
    const mp::RunOutcome& o = tr.outcome;
    sp.reserve_ns = replay_reserve_ns(c, tr.trace);
    sp.queue_ns = replay_queue_ns(o.events, o.peak_queue_depth);
    sp.merge_ns = replay_merge_ns(c.problem, o.metrics.total_recvs);
    splits.push_back(sp);

    const Shares sh = shares_of(sp);
    worst_error = std::max(worst_error, sh.decomposition_error);
    const std::string key = std::string("combo.") + c.spec->key;
    rep.set(key + ".loop_ms", sp.loop_ms);
    rep.set(key + ".reserve_share", sh.reserve);

    events += o.events;
    peak = std::max(peak, o.peak_queue_depth);
    makespan += o.makespan_us;
    sends += o.metrics.total_sends;
    bytes += static_cast<std::uint64_t>(o.metrics.total_bytes_sent);
    transfers += o.network.transfers;
    hops += o.network.total_hops;
    stall += o.network.total_stall_us;


    std::ostringstream os;
    os.precision(4);
    os << "sim_batch " << c.spec->key << " " << c.spec->algorithm << " "
       << c.spec->dist << ": run " << sp.run_ms << " ms = prepare "
       << sp.prepare_ms << " + runtime_build " << sp.build_ms << " + loop "
       << sp.loop_ms << " + verify " << sp.verify_ms << " (error "
       << 100 * sh.decomposition_error << "%); loop shares reserve "
       << 100 * sh.reserve << "%, queue " << 100 * sh.queue << "%, merge "
       << 100 * sh.merge << "%, residual " << 100 * sh.residual << "%";
    rep.note(os.str());
  }

  const RunSplit t = sum_splits(splits);
  const Shares sh = shares_of(t);
  rep.set("stop.run_ms", t.run_ms);
  rep.set("stop.prepare_ms", t.prepare_ms);
  rep.set("machine.runtime_build_ms", t.build_ms);
  rep.set("stop.verify_ms", t.verify_ms);
  rep.set("sim.loop_ms", t.loop_ms);
  rep.set("stop.decomposition_error", worst_error);
  rep.set("sim.events", static_cast<double>(events));
  rep.set("sim.peak_queue_depth", static_cast<double>(peak));
  rep.set("sim.makespan_us", makespan);
  rep.set("mp.sends", static_cast<double>(sends));
  rep.set("mp.bytes_sent", static_cast<double>(bytes));
  rep.set("net.transfers", static_cast<double>(transfers));
  rep.set("net.hops", static_cast<double>(hops));
  rep.set("net.stall_us", stall);
  rep.set("sim.events_per_s", static_cast<double>(events) / (t.loop_ms / 1e3));
  rep.set("sim.ns_per_event", t.loop_ms * 1e6 / static_cast<double>(events));
  rep.set("net.reserve_ns", t.reserve_ns);
  rep.set("net.reserve_share", sh.reserve);
  rep.set("sim.queue_ns", t.queue_ns);
  rep.set("sim.queue_share", sh.queue);
  rep.set("mp.merge_ns", t.merge_ns);
  rep.set("mp.merge_share", sh.merge);
  rep.set("sim.residual_share", sh.residual);
  rep.set("trace.overhead_frac", 1.0 - plain_ms / decomposed_ms);

  // Timed spans must add up to the run they split.
  constexpr double kTolerance = 0.15;
  if (worst_error > kTolerance)
    rep.note("WARNING: a combo's prepare + runtime_build + loop + verify is " +
             std::to_string(100 * worst_error) + "% off its stop::run time " +
             "(tolerance 15%)");
}

/// The sharded engine's figures: per combo the median serial and
/// sim_threads(-1) run times, and the engine's statistics.
void traced_auto(Setup& s, Report& rep) {
  std::uint64_t windows = 0, staged = 0, busy = 0, slots = 0;
  int shards = 0;
  double serial_total = 0;
  for (std::size_t i = 0; i < s.combos.size(); ++i) {
    std::vector<double> ms;
    for (int k = 0; k < kReps; ++k) {
      double m = 0;
      checked_run(s.combos[i], 0, s.serial[i], rep, &m);
      ms.push_back(m);
    }
    serial_total += median(ms);
  }
  std::vector<double> auto_ms(s.combos.size(), 0.0);
  std::size_t next = 0;
  run_isolated(
      [&](const Emit& emit) {
        for (std::size_t i = next; i < s.combos.size(); ++i) {
          Report r;
          std::vector<double> ms;
          for (int k = 0; k < kReps; ++k) {
            double m = 0;
            auto_run(s, i, r, &m, emit);
            ms.push_back(m);
          }
          const mp::ParallelStats par = run_combo(s.combos[i], -1).outcome.par;
          std::uint64_t b = 0, sl = 0;
          for (const mp::ParallelStats::Shard& sh : par.per_shard) {
            b += sh.busy_windows;
            sl += sh.busy_windows + sh.idle_windows;
          }
          emit("T " + std::to_string(i) + " " + num(median(ms)) + " " +
               std::to_string(par.shards) + " " + std::to_string(par.windows) +
               " " + std::to_string(b) + " " + std::to_string(sl) + " " +
               std::to_string(par.staged_xfers));
          ship(r, emit);
        }
      },
      [&](const std::string& line) {
        if (absorb_ref(line, s) || line.rfind("T ", 0) != 0) return;
        std::istringstream is(line.substr(2));
        std::size_t i = 0;
        std::string ms;
        int sh = 0;
        std::uint64_t w = 0, b = 0, sl = 0, st = 0;
        is >> i >> ms >> sh >> w >> b >> sl >> st;
        auto_ms[i] = std::stod(ms);
        shards = std::max(shards, sh);
        windows += w;
        busy += b;
        slots += sl;
        staged += st;
        next = i + 1;
      },
      rep);

  double auto_total = 0;
  for (const double ms : auto_ms) auto_total += ms;
  rep.set("par.shards", shards);
  rep.set("par.windows", static_cast<double>(windows));
  rep.set("par.busy_frac", slots == 0 ? 0.0
                                      : static_cast<double>(busy) /
                                            static_cast<double>(slots));
  rep.set("par.staged_xfers", static_cast<double>(staged));
  rep.set("par.events_drift", rep.metrics["par.events_drift"]);
  rep.set("sim.auto_ratio", serial_total / auto_total);
}

}  // namespace

namespace {

/// Set-up shared by sim_batch and sim_auto: machines, problems and one
/// serial run per combo, three times; setup_s is the median.
Setup timed_set_up(const RunArgs& args, Report& rep, double* setup_s) {
  std::vector<double> setups;
  Setup s;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point t0 = Clock::now();
    Setup next = set_up(args.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (k > 0 && next.serial != s.serial)
      rep.fail("serial fingerprints differ between two set-ups of a seed");
    s = std::move(next);
  }
  for (std::size_t i = 0; i < s.combos.size(); ++i)
    rep.note(std::string("sim_batch ") + kCombos[i].key + " serial " +
             to_string(s.serial[i]));
  *setup_s = median(setups);
  return s;
}

void set_latency(Report& rep, const std::vector<double>& rates,
                 const std::vector<double>& latencies, const char* what) {
  const TailSummary lat = summarize(latencies);
  rep.set("ops_per_s", median(rates));
  rep.set("latency_p50_ms", lat.p50);
  rep.set("latency_p99_ms", lat.tail);
  rep.note(std::string(what) + ": " + std::to_string(rates.size()) +
           " passes; latency over " + std::to_string(lat.n) +
           " runs, tail is p" + std::to_string(lat.tail_q));
}

}  // namespace

Report run_sim_batch(const RunArgs& args) {
  Report rep;
  double setup_s = 0;
  Setup s = timed_set_up(args, rep, &setup_s);
  if (args.trace) {
    traced_serial(s, rep);
  } else {
    std::vector<double> latencies;
    const std::vector<double> rates =
        serial_passes(s, args.seconds, rep, latencies);
    rep.set("setup_s", setup_s);
    set_latency(rep, rates, latencies, "sim_batch");
  }
  check_pins(s, args.seed, rep);
  return rep;
}

Report run_sim_auto(const RunArgs& args) {
  Report rep;
  double setup_s = 0;
  Setup s = timed_set_up(args, rep, &setup_s);
  if (args.trace) {
    traced_auto(s, rep);
  } else {
    std::vector<double> latencies;
    const std::vector<double> rates =
        auto_passes(s, args.seconds, rep, latencies);
    rep.set("setup_s", setup_s);
    set_latency(rep, rates, latencies, "sim_auto");
  }
  for (std::size_t i = 0; i < s.combos.size(); ++i)
    rep.note(std::string("sim_auto ") + kCombos[i].key +
             " sim_threads(-1) makespan " + num(s.auto_makespan[i]));
  return rep;
}

void print_sim_batch_pins(std::uint64_t seed) {
  const std::vector<Combo> combos = build_combos(seed);
  for (const Combo& c : combos) {
    const Fingerprint f = fingerprint_of(run_combo(c, 0).outcome);
    std::printf("    {%.17g, %llu, %llu, %llu},  // %s\n", f.makespan_us,
                static_cast<unsigned long long>(f.events),
                static_cast<unsigned long long>(f.transfers),
                static_cast<unsigned long long>(f.hops), c.spec->key);
  }
}

}  // namespace spbbench
