// VF2 correctness: hand cases plus property sweeps against the exhaustive
// brute-force oracle on random small graphs, and the kernel's
// allocation-free contract: once its per-thread scratch has grown to a
// pair's size, a containment check makes no heap allocation.

#include <gtest/gtest.h>

#include "counting_allocator.h"
#include "graph/brute_force_iso.h"
#include "graph/edge_signature.h"
#include "graph/graph.h"
#include "graph/subgraph_ops.h"
#include "graph/vf2.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace prague {
namespace {

using testing::MakeGraph;
using testing::kC;
using testing::kN;
using testing::kO;
using testing::kS;

TEST(Vf2Test, SingleEdgeMatch) {
  Graph pattern = MakeGraph({kC, kS}, {{0, 1}});
  Graph target = MakeGraph({kC, kS, kC}, {{0, 1}, {1, 2}});
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
}

TEST(Vf2Test, LabelMismatchFails) {
  Graph pattern = MakeGraph({kC, kO}, {{0, 1}});
  Graph target = MakeGraph({kC, kS, kC}, {{0, 1}, {1, 2}});
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(Vf2Test, NonInducedSemantics) {
  // A path C-C-C matches inside a triangle (extra target edges allowed).
  Graph path = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}});
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_TRUE(IsSubgraphIsomorphic(path, triangle));
  // But a triangle does not match inside a path.
  EXPECT_FALSE(IsSubgraphIsomorphic(triangle, path));
}

TEST(Vf2Test, PatternLargerThanTargetFails) {
  Graph pattern = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}});
  Graph target = MakeGraph({kC, kC}, {{0, 1}});
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(Vf2Test, EdgeLabelsRespected) {
  GraphBuilder bp;
  NodeId a = bp.AddNode(kC), b = bp.AddNode(kC);
  ASSERT_TRUE(bp.AddEdge(a, b, /*label=*/2).ok());
  Graph pattern = std::move(bp).Build();
  GraphBuilder bt;
  NodeId x = bt.AddNode(kC), y = bt.AddNode(kC);
  ASSERT_TRUE(bt.AddEdge(x, y, /*label=*/1).ok());
  Graph target = std::move(bt).Build();
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(Vf2Test, CountMatchesSymmetry) {
  // C-C edge in a C-C-C triangle: 3 edges x 2 orientations = 6 mappings.
  Graph pattern = MakeGraph({kC, kC}, {{0, 1}});
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(Vf2Matcher(pattern, triangle).Count(), 6u);
}

TEST(Vf2Test, CountHonorsLimit) {
  Graph pattern = MakeGraph({kC, kC}, {{0, 1}});
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(Vf2Matcher(pattern, triangle).Count(4), 4u);
}

// Single-label cycle C_n — a cheap way to build search spaces large
// enough to outrun DeadlineChecker's stride (deadlines are only consulted
// every kDefaultStride expansion steps).
Graph Cycle(size_t n) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddNode(kC);
  for (size_t i = 0; i < n; ++i) {
    (void)b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return std::move(b).Build();
}

TEST(Vf2Test, ForEachReturnsTrueWhenExhausted) {
  Graph pattern = MakeGraph({kC, kC}, {{0, 1}});
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  Vf2Matcher matcher(pattern, triangle);
  size_t seen = 0;
  EXPECT_TRUE(matcher.ForEach([&](const NodeMapping&) {
    ++seen;
    return true;
  }));
  EXPECT_EQ(seen, 6u);
  EXPECT_FALSE(matcher.deadline_hit());
  EXPECT_GT(matcher.nodes_expanded(), 0u);
}

TEST(Vf2Test, ForEachReturnsFalseWhenCallbackStops) {
  Graph pattern = MakeGraph({kC, kC}, {{0, 1}});
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  Vf2Matcher matcher(pattern, triangle);
  size_t seen = 0;
  EXPECT_FALSE(matcher.ForEach([&](const NodeMapping&) {
    ++seen;
    return false;
  }));
  EXPECT_EQ(seen, 1u);
  // Stopped by the callback, not the deadline.
  EXPECT_FALSE(matcher.deadline_hit());
}

TEST(Vf2Test, ForEachEmptySearchSpaceCountsAsExhausted) {
  // Pattern larger than target: nothing to enumerate, trivially complete.
  Graph pattern = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}});
  Graph target = MakeGraph({kC, kC}, {{0, 1}});
  Vf2Matcher matcher(pattern, target);
  EXPECT_TRUE(matcher.ForEach([](const NodeMapping&) { return true; }));
}

TEST(Vf2Test, ExpiredDeadlineCutsEnumeration) {
  // An edge in C_600 has 1200 mappings (~1800 expansions), comfortably
  // past the checker stride, so the pre-expired deadline cuts mid-search.
  Graph pattern = MakeGraph({kC, kC}, {{0, 1}});
  Graph target = Cycle(600);
  Vf2Matcher matcher(pattern, target);
  matcher.SetDeadline(Deadline::AfterMillis(0));
  size_t seen = 0;
  EXPECT_FALSE(matcher.ForEach([&](const NodeMapping&) {
    ++seen;
    return true;
  }));
  EXPECT_TRUE(matcher.deadline_hit());
  EXPECT_LT(seen, 1200u);
}

TEST(Vf2Test, DeadlineOverloadReportsCutOnLongRefutation) {
  // No triangle exists in a cycle; refuting it in C_600 takes thousands of
  // expansion steps, so the expired deadline trips before exhaustion.
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  Graph target = Cycle(600);
  bool cut = false;
  size_t nodes = 0;
  EXPECT_FALSE(IsSubgraphIsomorphic(triangle, target,
                                    Deadline::AfterMillis(0), &cut, &nodes));
  EXPECT_TRUE(cut);
  EXPECT_GT(nodes, 0u);
  // Unbounded: same verdict, no cut.
  cut = false;
  EXPECT_FALSE(IsSubgraphIsomorphic(triangle, target, Deadline(), &cut));
  EXPECT_FALSE(cut);
}

TEST(Vf2Test, CancellationTokenStopsSearch) {
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  Graph target = Cycle(600);
  CancellationToken token;
  token.RequestStop();
  bool cut = false;
  EXPECT_FALSE(IsSubgraphIsomorphic(triangle, target,
                                    Deadline().WithToken(&token), &cut));
  EXPECT_TRUE(cut);
  // Reset re-arms the same token.
  token.Reset();
  cut = false;
  EXPECT_FALSE(IsSubgraphIsomorphic(triangle, target,
                                    Deadline().WithToken(&token), &cut));
  EXPECT_FALSE(cut);
}

TEST(Vf2Test, IsomorphismCheck) {
  Graph a = MakeGraph({kC, kS, kO}, {{0, 1}, {1, 2}});
  Graph b = MakeGraph({kO, kS, kC}, {{0, 1}, {1, 2}});  // relabeled order
  EXPECT_TRUE(AreIsomorphic(a, b));
  Graph c = MakeGraph({kC, kS, kO}, {{0, 1}, {0, 2}});  // different center
  EXPECT_FALSE(AreIsomorphic(a, c));
}

// --- Property sweep: VF2 ≡ brute force on random labeled graphs. ---

// Edge labels are drawn from [0, edge_label_count) when that exceeds 1;
// otherwise every edge carries label 0 and no randomness is spent on it.
Graph RandomConnectedGraph(Rng* rng, size_t nodes, size_t extra_edges,
                           size_t label_count, size_t edge_label_count = 1) {
  GraphBuilder b;
  for (size_t i = 0; i < nodes; ++i) {
    b.AddNode(static_cast<Label>(rng->Below(label_count)));
  }
  auto edge_label = [&]() -> Label {
    return edge_label_count > 1
               ? static_cast<Label>(rng->Below(edge_label_count))
               : 0;
  };
  for (NodeId i = 1; i < nodes; ++i) {
    (void)b.AddEdge(i, static_cast<NodeId>(rng->Below(i)), edge_label());
  }
  for (size_t i = 0; i < extra_edges; ++i) {
    NodeId u = static_cast<NodeId>(rng->Below(nodes));
    NodeId v = static_cast<NodeId>(rng->Below(nodes));
    if (u != v) (void)b.AddEdge(u, v, edge_label());
  }
  return std::move(b).Build();
}

class Vf2PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Vf2PropertyTest, AgreesWithBruteForceOracle) {
  Rng rng(GetParam());
  Graph target = RandomConnectedGraph(&rng, 6 + rng.Below(3), rng.Below(4), 2);
  Graph pattern = RandomConnectedGraph(&rng, 2 + rng.Below(4), rng.Below(2), 2);
  EXPECT_EQ(IsSubgraphIsomorphic(pattern, target),
            BruteForceSubgraphIsomorphic(pattern, target));
}

TEST_P(Vf2PropertyTest, CountsAgreeWithBruteForce) {
  Rng rng(GetParam() ^ 0xABCD);
  Graph target = RandomConnectedGraph(&rng, 5 + rng.Below(3), rng.Below(3), 2);
  Graph pattern = RandomConnectedGraph(&rng, 2 + rng.Below(3), 0, 2);
  EXPECT_EQ(Vf2Matcher(pattern, target).Count(),
            BruteForceCountMappings(pattern, target));
}

TEST_P(Vf2PropertyTest, SampledSubgraphAlwaysMatches) {
  Rng rng(GetParam() ^ 0x1234);
  Graph target = RandomConnectedGraph(&rng, 7, 3, 3);
  auto by_size = ConnectedEdgeSubsetsBySize(target);
  for (size_t k = 1; k <= std::min<size_t>(4, target.EdgeCount()); ++k) {
    ASSERT_FALSE(by_size[k].empty());
    EdgeMask mask = by_size[k][rng.Below(by_size[k].size())];
    Graph sub = ExtractEdgeSubgraph(target, mask).graph;
    EXPECT_TRUE(IsSubgraphIsomorphic(sub, target));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Vf2PropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

// Thousands of edge-labelled pairs of varying sizes through one thread's
// reused scratch: verdicts and mapping counts must match the oracle
// whatever size of pair the scratch last served.
TEST(Vf2OracleTest, EdgeLabelledPairsAgreeWithBruteForce) {
  Rng rng(4242);
  size_t matches = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Graph target = RandomConnectedGraph(&rng, 3 + rng.Below(7),
                                        rng.Below(5), 3, 3);
    Graph pattern = RandomConnectedGraph(&rng, 2 + rng.Below(4),
                                         rng.Below(3), 3, 3);
    const bool truth = BruteForceSubgraphIsomorphic(pattern, target);
    matches += truth;
    ASSERT_EQ(IsSubgraphIsomorphic(pattern, target, Deadline()), truth)
        << "trial " << trial;
    if (trial % 10 == 0) {
      ASSERT_EQ(Vf2Matcher(pattern, target).Count(),
                BruteForceCountMappings(pattern, target))
          << "trial " << trial;
    }
  }
  EXPECT_GT(matches, 0u);
}

TEST(Vf2AllocationTest, WarmContainmentCheckAllocatesNothing) {
  Rng rng(99);
  Graph big = RandomConnectedGraph(&rng, 40, 20, 2, 2);
  Graph small_target = RandomConnectedGraph(&rng, 8, 3, 2, 2);
  Graph pattern = RandomConnectedGraph(&rng, 5, 1, 2, 2);
  Graph cycle = Cycle(600);
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  const EdgeSignature big_sig(big), small_sig(small_target),
      pattern_sig(pattern), cycle_sig(cycle), triangle_sig(triangle);
  const Deadline expired = Deadline::AfterMillis(0);
  ContainmentCounters counters;
  bool cut = false;
  auto check_all = [&] {
    size_t hits = 0;
    hits += Contains(pattern, pattern_sig, big, big_sig, Deadline(), &cut,
                     &counters);
    hits += Contains(pattern, pattern_sig, small_target, small_sig,
                     Deadline(), &cut, &counters);
    hits += Contains(triangle, triangle_sig, cycle, cycle_sig, Deadline(),
                     &cut, &counters);
    // A deadline-cut search unwinds through the same scratch.
    hits += Contains(triangle, triangle_sig, cycle, cycle_sig, expired, &cut,
                     &counters);
    return hits;
  };
  const size_t warm_hits = check_all();  // grows the scratch
  const uint64_t before = g_allocations.load();
  size_t hits = 0;
  for (int i = 0; i < 50; ++i) hits += check_all();
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(hits, 50 * warm_hits);
  EXPECT_TRUE(cut);  // the last check was the expired one
  EXPECT_GT(counters.vf2_calls, 0u);
}

}  // namespace
}  // namespace prague
