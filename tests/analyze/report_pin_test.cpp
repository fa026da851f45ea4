#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/mutate.h"
#include "analyze/sweep.h"
#include "dist/distribution.h"
#include "machine/config.h"
#include "stop/algorithm.h"

// Pins the analyzer's full verbose report text: an FNV-1a hash over
// analyze_combo's output for the paragon grids, two large t3d512 combos
// (PersAlltoAll: 130k ops), and the paragon grids under every seeded
// mutation at seeds 1-3.  Any change to matching, the wait-for graph,
// chunk checks or link-conflict counting that alters a single report byte
// (a violation's wording or order, a quality figure) moves a hash.  A
// deliberate report change must update the hashes here and say why.

namespace spb::analyze {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct TextHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
};

std::vector<SweepCombo> paragon_grids() {
  std::vector<SweepCombo> grid;
  const std::pair<const char*, machine::MachineConfig> machines[] = {
      {"paragon4x4", machine::paragon(4, 4)},
      {"paragon8x8", machine::paragon(8, 8)},
  };
  for (const auto& [key, mc] : machines)
    for (const stop::AlgorithmPtr& alg : stop::all_algorithms())
      for (const dist::Kind kind : dist::all_kinds())
        grid.push_back({key, mc, alg, kind});
  return grid;
}

std::string grid_hash(const std::vector<SweepCombo>& grid,
                      const SweepOptions& opt) {
  TextHash h;
  for (const SweepCombo& c : grid) h.add(analyze_combo(c, opt).text);
  return hex64(h.h);
}

SweepOptions verbose_options(std::uint64_t seed = 1) {
  SweepOptions opt;
  opt.verbose = true;
  opt.seed = seed;
  return opt;
}

TEST(AnalyzerReportPin, ParagonGrids) {
  EXPECT_EQ(grid_hash(paragon_grids(), verbose_options()),
            "0x4fe1161badeb7ea4");
}

TEST(AnalyzerReportPin, T3d512AllToAllCombos) {
  const machine::MachineConfig t3d = machine::t3d(512);
  const std::vector<SweepCombo> grid{
      {"t3d512", t3d, stop::find_algorithm("PersAlltoAll"), dist::Kind::kRow},
      {"t3d512", t3d, stop::find_algorithm("Hier_Lin"), dist::Kind::kRow},
  };
  EXPECT_EQ(grid_hash(grid, verbose_options()), "0xad47e12d4a58e263");
}

TEST(AnalyzerReportPin, ParagonGridsUnderEveryMutation) {
  const std::vector<SweepCombo> grid = paragon_grids();
  const char* const want[] = {"0x747634f61a74a9cc", "0x9a7f0efc463663ed",
                              "0x9a4c350e1bd7e81c"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SweepOptions opt = verbose_options(seed);
    opt.mutations = all_mutations();
    EXPECT_EQ(grid_hash(grid, opt), want[seed - 1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spb::analyze
