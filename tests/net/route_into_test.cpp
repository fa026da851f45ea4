#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "net/topology.h"

namespace spb::net {
namespace {

// route_into() is the routing primitive and route() wraps it, so the two
// must agree on every pair even when one buffer is reused across all of
// them: a walk that forgets to clear, or leaves a stale tail behind a
// shorter path, diverges here.
void expect_all_pairs_match(const Topology& topo) {
  std::vector<LinkId> out;
  const int n = topo.node_count();
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b) {
      topo.route_into(a, b, out);
      ASSERT_EQ(out, topo.route(a, b)) << "pair " << a << "->" << b;
    }
}

TEST(RouteInto, LinearArrayAllPairs) { expect_all_pairs_match(LinearArray(6)); }

TEST(RouteInto, Mesh2DAllPairs) {
  expect_all_pairs_match(Mesh2D(4, 6));
  expect_all_pairs_match(Mesh2D(4, 6, /*y_first=*/true));
}

TEST(RouteInto, Torus3DAllPairs) { expect_all_pairs_match(Torus3D(3, 4, 2)); }

TEST(RouteInto, TorusNDAllPairs) {
  expect_all_pairs_match(TorusND({2, 3, 4, 2}));
}

TEST(RouteInto, HypercubeAllPairs) { expect_all_pairs_match(Hypercube(5)); }

TEST(RouteInto, ClusterAllPairs) { expect_all_pairs_match(Cluster(6, 3)); }

TEST(RouteInto, SelfRouteIsEmpty) {
  const Mesh2D mesh(3, 3);
  const Torus3D torus(4, 4, 4);
  const Cluster cluster(4, 2);
  // A stale path in the buffer must not survive a self route.
  std::vector<LinkId> out{1, 2, 3};
  mesh.route_into(4, 4, out);
  EXPECT_TRUE(out.empty());
  out = {1, 2, 3};
  torus.route_into(9, 9, out);
  EXPECT_TRUE(out.empty());
  out = {1, 2, 3};
  cluster.route_into(5, 5, out);
  EXPECT_TRUE(out.empty());
}

TEST(RouteInto, ReusesTheBuffer) {
  // The network model routes every message into one buffer; once it holds
  // the longest path, no later route may reallocate it.
  const Torus3D torus(8, 8, 8);
  std::vector<LinkId> out;
  torus.route_into(0, torus.node_at({4, 4, 4}), out);  // the diameter, 12
  ASSERT_EQ(out.size(), 12u);
  const LinkId* data = out.data();
  for (NodeId b = 0; b < torus.node_count(); ++b) {
    torus.route_into(7, b, out);
    ASSERT_EQ(out.data(), data) << "7->" << b << " reallocated";
  }
  const Mesh2D mesh(5, 7);
  std::vector<LinkId> mesh_out;
  mesh.route_into(0, mesh.node_count() - 1, mesh_out);
  const LinkId* mesh_data = mesh_out.data();
  mesh.route_into(mesh.node_count() - 1, 0, mesh_out);
  EXPECT_EQ(mesh_out.data(), mesh_data);
  mesh.route_into(3, 4, mesh_out);
  EXPECT_EQ(mesh_out.data(), mesh_data);
}

TEST(RouteInto, RejectsNodesOutOfRange) {
  std::vector<LinkId> out;
  EXPECT_THROW(Mesh2D(2, 2).route_into(0, 4, out), CheckError);
  EXPECT_THROW(TorusND({3, 3}).route_into(-1, 0, out), CheckError);
  EXPECT_THROW(Cluster(2, 2).route_into(0, 4, out), CheckError);
  EXPECT_THROW(LinearArray(3).route_into(3, 0, out), CheckError);
}

}  // namespace
}  // namespace spb::net
