// spbbench — the spb benchmark.
//
//   spbbench --workload NAME --seed N --seconds S --trace 0|1
//   spbbench --selftest          # the measurement code's own checks
//   spbbench --list-metrics      # the metric catalog, one per line
//   spbbench --print-pins N      # sim_batch fingerprints of seed N
//
// Details go to stderr; the last line on stdout is the result object.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "catalog.h"
#include "host.h"
#include "measure.h"
#include "workloads.h"

namespace {

using namespace spbbench;  // NOLINT(google-build-using-namespace)

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spbbench: %s\nusage: spbbench --workload "
               "sim_batch|sim_auto|sweep_all|serve_hot|serve_cold --seed N "
               "--seconds S --trace 0|1\n       spbbench --selftest | "
               "--list-metrics | --print-pins N\n",
               why);
  std::exit(2);
}

/// The workload seed the inputs are made from.  The program caps the T3D
/// scatter seed (`t3d512:N`) at 10^9, and the serve workloads write seeds
/// into JSON numbers, so a seed outside [1, 10^9] is folded into that range
/// by a fixed mix; seeds inside it are used as given.
std::uint64_t workload_seed(std::uint64_t seed) {
  constexpr std::uint64_t kMaxSeed = 1000000000;
  if (seed >= 1 && seed <= kMaxSeed) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return 1 + z % kMaxSeed;
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-')
    usage((std::string("bad ") + what).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--selftest") {
      return run_selftests() == 0 ? 0 : 1;
    } else if (a == "--list-metrics") {
      for (const MetricSpec& m : end_to_end_metrics())
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const MetricSpec& m : per_layer_metrics())
        std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    } else if (a == "--print-pins") {
      print_sim_batch_pins(workload_seed(parse_u64(next(), "seed")));
      return 0;
    } else if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      args.seed = workload_seed(parse_u64(next(), "seed"));
      have_seed = true;
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_u64(next(), "seconds");
      if (s < 1 || s > 600) usage("seconds must be 1..600");
      args.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("trace must be 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are all required");

  const HostInfo host = host_info();
  const std::string refusal = build_refusal(host);
  if (!refusal.empty()) {
    std::fprintf(stderr, "spbbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 3;
  }
  if (run_selftests() != 0) {
    std::fprintf(stderr, "spbbench: measurement self-tests failed\n");
    return 4;
  }
  args.nproc = host.nproc;

  Report rep;
  try {
    if (workload == "sim_batch") {
      rep = run_sim_batch(args);
    } else if (workload == "sim_auto") {
      rep = run_sim_auto(args);
    } else if (workload == "sweep_all") {
      rep = run_sweep_all(args);
    } else if (workload == "serve_hot") {
      rep = run_serve_hot(args);
    } else if (workload == "serve_cold") {
      rep = run_serve_cold(args);
    } else {
      usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spbbench: %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (!args.trace) {
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("ok_frac", rep.attempted == 0
                           ? 0.0
                           : 1.0 - static_cast<double>(rep.failed) /
                                       static_cast<double>(rep.attempted));
  }
  for (const std::string& n : rep.notes) std::fprintf(stderr, "%s\n", n.c_str());
  std::printf("host: %s\n", host_json(host).c_str());
  std::printf("%s\n",
              result_json(rep, args.trace ? per_layer_metrics()
                                          : end_to_end_metrics())
                  .c_str());
  return 0;
}
