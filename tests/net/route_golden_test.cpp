// Pins every topology's routes: an FNV-1a hash over route(a, b) and
// alt_route(a, b) for all ordered pairs, each path hashed as its length
// followed by its link ids.  The routing walks may be rewritten for speed,
// but a single link moved on a single path moves a hash — and with it the
// contention, the stall times and every simulated figure downstream.  A
// deliberate routing change must update the hashes here and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/topology.h"

namespace spb::net {
namespace {

struct RouteHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add_word(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add_path(const std::vector<LinkId>& path) {
    add_word(static_cast<std::uint32_t>(path.size()));
    for (const LinkId l : path) add_word(static_cast<std::uint32_t>(l));
  }
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string route_hash(const Topology& t) {
  RouteHash h;
  for (NodeId a = 0; a < t.node_count(); ++a)
    for (NodeId b = 0; b < t.node_count(); ++b) h.add_path(t.route(a, b));
  return hex64(h.h);
}

std::string alt_route_hash(const Topology& t) {
  RouteHash h;
  for (NodeId a = 0; a < t.node_count(); ++a)
    for (NodeId b = 0; b < t.node_count(); ++b) h.add_path(t.alt_route(a, b));
  return hex64(h.h);
}

void expect_hashes(const Topology& t, const char* route, const char* alt) {
  EXPECT_EQ(route_hash(t), route) << t.name() << " route()";
  EXPECT_EQ(alt_route_hash(t), alt) << t.name() << " alt_route()";
}

TEST(RouteGolden, LinearArray) {
  expect_hashes(LinearArray(7), "0xb55d512b24fe9935",
                "0xb55d512b24fe9935");
}

TEST(RouteGolden, Mesh2D) {
  expect_hashes(Mesh2D(5, 7), "0xc92cdbaf02e5b965",
                "0xd50c0e3d3454ff85");
}

TEST(RouteGolden, Mesh2DYFirst) {
  expect_hashes(Mesh2D(5, 7, /*y_first=*/true), "0xd50c0e3d3454ff85",
                "0xc92cdbaf02e5b965");
}

TEST(RouteGolden, Torus3D) {
  expect_hashes(Torus3D(8, 8, 8), "0x851886682fd20e65",
                "0xf6b8eff84ae13f45");
}

TEST(RouteGolden, TorusND4D) {
  expect_hashes(TorusND({4, 4, 4, 4}), "0x2a6167a93658e245",
                "0x6543ec9bacc805e5");
}

TEST(RouteGolden, TorusNDMixedRadix) {
  expect_hashes(TorusND({3, 5}), "0x5767b61ebfa3b655",
                "0x145798752e34f4b5");
}

TEST(RouteGolden, Hypercube) {
  expect_hashes(Hypercube(4), "0x4da636d358054e25",
                "0x4da636d358054e25");
}

TEST(RouteGolden, Cluster) {
  expect_hashes(Cluster(8, 4), "0xc63ae64d08313225",
                "0x15874f6decf576a5");
}

}  // namespace
}  // namespace spb::net
