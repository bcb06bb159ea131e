#include "core/node_id.hpp"

#include <gtest/gtest.h>

#include <set>

namespace avmem::core {
namespace {

TEST(NodeIdTest, WireEncodingIsBigEndian) {
  const NodeId id{0x0A0B0C0Du, 0x1234};
  const auto b = id.bytes();
  EXPECT_EQ(b[0], 0x0A);
  EXPECT_EQ(b[1], 0x0B);
  EXPECT_EQ(b[2], 0x0C);
  EXPECT_EQ(b[3], 0x0D);
  EXPECT_EQ(b[4], 0x12);
  EXPECT_EQ(b[5], 0x34);
}

TEST(NodeIdTest, ToStringDottedQuad) {
  const NodeId id{0x0A000102u, 4000};
  EXPECT_EQ(id.toString(), "10.0.1.2:4000");
}

TEST(NodeIdTest, Ordering) {
  const NodeId a{1, 1};
  const NodeId b{1, 2};
  const NodeId c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (NodeId{1, 1}));
}

TEST(MakeNodeIdsTest, DistinctAndDeterministic) {
  const auto ids1 = makeNodeIds(2000, 7);
  const auto ids2 = makeNodeIds(2000, 7);
  ASSERT_EQ(ids1.size(), 2000u);
  EXPECT_EQ(ids1, ids2);  // deterministic in the seed

  std::set<std::pair<std::uint32_t, std::uint16_t>> uniq;
  for (const auto& id : ids1) uniq.emplace(id.ip, id.port);
  EXPECT_EQ(uniq.size(), ids1.size());  // all distinct
}

TEST(MakeNodeIdsTest, DifferentSeedsDifferentPorts) {
  const auto a = makeNodeIds(100, 1);
  const auto b = makeNodeIds(100, 2);
  int same = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    if (a[i].port == b[i].port) ++same;
  }
  EXPECT_LT(same, 20);
}

}  // namespace
}  // namespace avmem::core
