// sweep_all: the `analyze_schedule --machine all` grid, {paragon4x4,
// paragon8x8, t3d512} x every algorithm x every distribution, through
// analyze::analyze_combo on bench::SweepRunner at --jobs nproc.  Many short
// runs with schedule recording and the analyze checks: per-run set-up
// (prepare, make_runtime) and load balance across sweep workers matter
// here, unlike in sim_batch.  The t3d512 combos set the tail.
#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/checks.h"
#include "analyze/record.h"
#include "analyze/sweep.h"
#include "machine/config.h"
#include "stop/frame.h"
#include "stop/problem.h"
#include "stop/verify.h"
#include "sweep_runner.h"
#include "workloads.h"

namespace spbbench {

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace)

struct Grid {
  std::vector<analyze::SweepCombo> combos;
  analyze::SweepOptions options;
};

/// The seed is analyze_schedule's --seed: it places the Rand sources.
Grid build_grid(std::uint64_t seed) {
  Grid g;
  g.options.seed = seed;
  const std::pair<const char*, machine::MachineConfig> machines[] = {
      {"paragon4x4", machine::paragon(4, 4)},
      {"paragon8x8", machine::paragon(8, 8)},
      {"t3d512", machine::t3d(512)},
  };
  for (const auto& [key, mc] : machines)
    for (const stop::AlgorithmPtr& alg : stop::all_algorithms())
      for (const dist::Kind kind : dist::all_kinds())
        g.combos.push_back({key, mc, alg, kind});
  return g;
}

struct Pass {
  double wall_s = 0;
  std::uint64_t hash = 0;
  int flagged = 0;
  std::vector<double> combo_ms;
  std::vector<std::thread::id> worker;
};

Pass sweep(const Grid& g, int jobs) {
  const std::size_t n = g.combos.size();
  std::vector<analyze::ComboResult> results(n);
  Pass p;
  p.combo_ms.assign(n, 0.0);
  p.worker.assign(n, std::thread::id{});
  const bench::SweepRunner runner(jobs);
  const Clock::time_point t0 = Clock::now();
  runner.run(n, [&](std::size_t i) {
    const Clock::time_point t = Clock::now();
    results[i] = analyze::analyze_combo(g.combos[i], g.options);
    p.combo_ms[i] = ms_since(t);
    p.worker[i] = std::this_thread::get_id();
  });
  p.wall_s = seconds_between(t0, Clock::now());
  Fnv64 h;
  for (const analyze::ComboResult& r : results) {
    h.add(r.text);
    p.flagged += r.flagged;
  }
  p.hash = h.value();
  return p;
}

/// Counts the pass and checks it against the first pass's text.
void check_pass(const Pass& p, std::uint64_t want_hash, std::size_t combos,
                const char* what, Report& rep) {
  rep.attempted += combos;
  if (p.flagged != 0)
    rep.fail(std::string(what) + ": " + std::to_string(p.flagged) +
                 " combos flagged",
             static_cast<std::uint64_t>(p.flagged));
  if (p.hash != want_hash)
    rep.fail(std::string(what) + ": sweep text hash " + hex64(p.hash) +
             " != " + hex64(want_hash));
}

/// analyze_combo's steps, each timed from outside, averaged over the grid.
void decompose(const Grid& g, Report& rep, double* wall_ms) {
  double prepare = 0, build = 0, record = 0, check = 0, verify = 0;
  const Clock::time_point t0 = Clock::now();
  for (const analyze::SweepCombo& c : g.combos) {
    const int p = c.machine.p;
    const int s = std::max(2, p / 4);
    const stop::Problem pb = stop::make_problem(
        c.machine, c.kind, std::min(s, p), g.options.bytes, g.options.seed);
    Clock::time_point t = Clock::now();
    c.algorithm->prepare(stop::Frame::whole(pb));
    prepare += ms_since(t);
    t = Clock::now();
    c.machine.make_runtime(c.algorithm->mpi_flavored());
    build += ms_since(t);
    t = Clock::now();
    const analyze::RecordedRun run = analyze::record_run(*c.algorithm, pb);
    record += ms_since(t);
    t = Clock::now();
    const analyze::AnalysisReport report =
        analyze::analyze_schedule(run.schedule, pb, g.options.analysis);
    check += ms_since(t);
    t = Clock::now();
    const bool ok = run.completed &&
                    stop::verify_broadcast(pb, run.final_payloads).ok;
    verify += ms_since(t);
    ++rep.attempted;
    if (!ok || !report.ok())
      rep.fail(c.machine_key + " " + c.algorithm->name() +
               ": decomposition replay flagged");
  }
  *wall_ms = ms_since(t0);
  const double n = static_cast<double>(g.combos.size());
  rep.set("stop.prepare_ms", prepare / n);
  rep.set("machine.runtime_build_ms", build / n);
  rep.set("analyze.record_ms", record / n);
  rep.set("analyze.check_ms", check / n);
  rep.set("stop.verify_ms", verify / n);
  std::ostringstream os;
  os.precision(4);
  os << "sweep_all per combo: record " << record / n << " ms (of which prepare "
     << prepare / n << ", runtime_build " << build / n << "), check "
     << check / n << " ms, verify " << verify / n << " ms";
  rep.note(os.str());
}

}  // namespace

Report run_sweep_all(const RunArgs& args) {
  Report rep;
  // Set-up: the grid, then one combo per machine so each machine's lazy
  // state (route caches, allocator pools) is warm before timing.
  std::vector<double> setups;
  Grid g;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    g = build_grid(args.seed);
    const std::size_t per_machine = g.combos.size() / 3;
    for (std::size_t m = 0; m < 3; ++m)
      analyze::analyze_combo(g.combos[m * per_machine], g.options);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const std::size_t n = g.combos.size();
  const int jobs = args.nproc;

  if (args.trace) {
    const Pass serial = sweep(g, 1);
    const Pass par = sweep(g, jobs);
    check_pass(serial, serial.hash, n, "serial sweep", rep);
    check_pass(par, serial.hash, n, "parallel sweep vs serial", rep);
    std::map<std::thread::id, double> busy;
    for (std::size_t i = 0; i < n; ++i) busy[par.worker[i]] += par.combo_ms[i];
    double max_busy = 0, sum_busy = 0;
    for (const auto& [id, ms] : busy) {
      max_busy = std::max(max_busy, ms);
      sum_busy += ms;
    }
    const double speedup = serial.wall_s / par.wall_s;
    rep.set("sweep.speedup", speedup);
    rep.set("sweep.efficiency", speedup / jobs);
    rep.set("sweep.imbalance",
            max_busy / (sum_busy / static_cast<double>(busy.size())));
    rep.set("sweep.combo_ms_max",
            *std::max_element(par.combo_ms.begin(), par.combo_ms.end()));
    double decomposed_ms = 0;
    decompose(g, rep, &decomposed_ms);
    rep.set("trace.overhead_frac", 1.0 - serial.wall_s * 1e3 / decomposed_ms);
    rep.note("sweep_all: " + std::to_string(n) + " combos, serial " +
             std::to_string(serial.wall_s) + " s, jobs=" +
             std::to_string(jobs) + " " + std::to_string(par.wall_s) +
             " s, text hash " + hex64(serial.hash));
    return rep;
  }

  std::vector<double> rates, latencies;
  std::uint64_t want = 0;
  const Clock::time_point end = after(args.seconds);
  do {
    const Pass p = sweep(g, jobs);
    if (rates.empty()) want = p.hash;
    check_pass(p, want, n, "sweep pass", rep);
    rates.push_back(static_cast<double>(n) / p.wall_s);
    latencies.insert(latencies.end(), p.combo_ms.begin(), p.combo_ms.end());
  } while (Clock::now() < end || rates.size() < 2);

  const TailSummary lat = summarize(latencies);
  rep.set("setup_s", median(setups));
  rep.set("ops_per_s", median(rates));
  rep.set("latency_p50_ms", lat.p50);
  rep.set("latency_p99_ms", lat.tail);
  rep.note("sweep_all: " + std::to_string(rates.size()) + " passes of " +
           std::to_string(n) + " combos at jobs=" + std::to_string(jobs) +
           ", latency over " + std::to_string(lat.n) + " combos, tail p" +
           std::to_string(lat.tail_q) + ", text hash " + hex64(want));
  return rep;
}

}  // namespace spbbench
