// The containment check of a RUN: the edge-label signature test in front
// of VF2 (graph/edge_signature.h). The signature must never reject a pair
// the exhaustive brute-force oracle matches — on mined AIDS-like
// fragments, on small random edge-labelled graphs, and with labels too
// wide for the signature's bit-packing — and the combined check must give
// the oracle's verdict. Data-graph signatures are computed on entry to a
// GraphDatabase and shared, like the graphs, by every copy.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "graph/brute_force_iso.h"
#include "graph/edge_signature.h"
#include "graph/graph_database.h"
#include "graph/subgraph_ops.h"
#include "graph/vf2.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace prague {
namespace {

using testing::kC;
using testing::kN;
using testing::kS;
using testing::MakeGraph;

Graph LabelledGraph(const std::vector<Label>& nodes,
                    const std::vector<std::array<uint32_t, 3>>& edges) {
  GraphBuilder b;
  for (Label l : nodes) b.AddNode(l);
  for (const auto& [u, v, label] : edges) {
    if (!b.AddEdge(u, v, label).ok()) std::abort();
  }
  return std::move(b).Build();
}

// A connected graph: a random spanning tree plus `extra` random edges,
// node and edge labels drawn from the given alphabets.
Graph RandomGraph(Rng* rng, size_t nodes, size_t extra,
                  const std::vector<Label>& node_labels,
                  const std::vector<Label>& edge_labels) {
  GraphBuilder b;
  for (size_t i = 0; i < nodes; ++i) {
    b.AddNode(node_labels[rng->Below(node_labels.size())]);
  }
  auto edge_label = [&] { return edge_labels[rng->Below(edge_labels.size())]; };
  for (NodeId i = 1; i < nodes; ++i) {
    (void)b.AddEdge(i, static_cast<NodeId>(rng->Below(i)), edge_label());
  }
  for (size_t i = 0; i < extra; ++i) {
    NodeId u = static_cast<NodeId>(rng->Below(nodes));
    NodeId v = static_cast<NodeId>(rng->Below(nodes));
    if (u != v) (void)b.AddEdge(u, v, edge_label());
  }
  return std::move(b).Build();
}

// Tallies of an oracle sweep.
struct Sweep {
  size_t pairs = 0;
  size_t matches = 0;
  size_t signature_rejections = 0;
};

// Checks one pair against the brute-force oracle: the signature test is
// sound, and the combined check returns the oracle's verdict.
void CheckPair(const Graph& pattern, const Graph& target, Sweep* sweep) {
  const EdgeSignature pattern_sig(pattern);
  const EdgeSignature target_sig(target);
  const bool truth = BruteForceSubgraphIsomorphic(pattern, target);
  const bool passes = pattern_sig.IsSubsetOf(target_sig);
  ++sweep->pairs;
  sweep->matches += truth;
  sweep->signature_rejections += !passes;
  if (truth) {
    ASSERT_TRUE(passes) << "signature rejected a true match\n"
                        << pattern.ToString() << "in\n"
                        << target.ToString();
  }
  bool cut = true;
  ContainmentCounters counters;
  EXPECT_EQ(Contains(pattern, pattern_sig, target, target_sig, Deadline(),
                     &cut, &counters),
            truth)
      << pattern.ToString() << "in\n"
      << target.ToString();
  EXPECT_FALSE(cut);
  EXPECT_EQ(counters.vf2_calls, passes ? 1u : 0u);
}

// Half the patterns are connected edge subsets of the target (true
// matches by construction), half are independent random graphs.
void RandomSweep(uint64_t seed, size_t pairs,
                 const std::vector<Label>& node_labels,
                 const std::vector<Label>& edge_labels, Sweep* sweep) {
  Rng rng(seed);
  for (size_t i = 0; i < pairs; ++i) {
    Graph target =
        RandomGraph(&rng, 5 + rng.Below(4), rng.Below(4), node_labels,
                    edge_labels);
    Graph pattern;
    if (rng.Chance(0.5)) {
      auto by_size = ConnectedEdgeSubsetsBySize(target);
      size_t k = 1 + rng.Below(std::min<size_t>(5, target.EdgeCount()));
      pattern = ExtractEdgeSubgraph(
                    target, by_size[k][rng.Below(by_size[k].size())])
                    .graph;
    } else {
      pattern = RandomGraph(&rng, 2 + rng.Below(4), rng.Below(2),
                            node_labels, edge_labels);
    }
    CheckPair(pattern, target, sweep);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EdgeSignatureTest, RejectsMissingTripleWithoutVf2) {
  Graph pattern = MakeGraph({kN, kN}, {{0, 1}});
  Graph target = MakeGraph({kC, kS, kC}, {{0, 1}, {1, 2}});
  ContainmentCounters counters;
  EXPECT_FALSE(Contains(pattern, EdgeSignature(pattern), target,
                        EdgeSignature(target), Deadline(), nullptr,
                        &counters));
  EXPECT_EQ(counters.vf2_calls, 0u);
}

TEST(EdgeSignatureTest, CountsMultiplicity) {
  // Three C-S edges do not fit in a graph with two.
  Graph star = MakeGraph({kC, kS, kS, kS}, {{0, 1}, {0, 2}, {0, 3}});
  Graph path = MakeGraph({kS, kC, kS, kC}, {{0, 1}, {1, 2}, {2, 3}});
  Graph two = MakeGraph({kS, kC, kS}, {{0, 1}, {1, 2}});
  EXPECT_FALSE(EdgeSignature(star).IsSubsetOf(EdgeSignature(two)));
  EXPECT_TRUE(EdgeSignature(two).IsSubsetOf(EdgeSignature(path)));
  EXPECT_TRUE(EdgeSignature(star).IsSubsetOf(EdgeSignature(path)));
}

TEST(EdgeSignatureTest, EndpointOrderDoesNotMatterButEdgeLabelsDo) {
  Graph cs = LabelledGraph({kC, kS}, {{{0, 1, 2}}});
  Graph sc = LabelledGraph({kS, kC}, {{{0, 1, 2}}});
  Graph cs_other = LabelledGraph({kC, kS}, {{{0, 1, 3}}});
  EXPECT_EQ(EdgeSignature(cs), EdgeSignature(sc));
  EXPECT_FALSE(EdgeSignature(cs).IsSubsetOf(EdgeSignature(cs_other)));
}

TEST(EdgeSignatureTest, PassingTestRunsVf2) {
  // A C with three C neighbours vs a C path: the path has four C-C edges,
  // so the signature passes, and VF2 refutes (max degree 2).
  Graph star = MakeGraph({kC, kC, kC, kC}, {{0, 1}, {0, 2}, {0, 3}});
  Graph path = MakeGraph({kC, kC, kC, kC, kC},
                         {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ContainmentCounters counters;
  EXPECT_FALSE(Contains(star, EdgeSignature(star), path, EdgeSignature(path),
                        Deadline(), nullptr, &counters));
  EXPECT_EQ(counters.vf2_calls, 1u);
  EXPECT_GT(counters.nodes_expanded, 0u);
}

// Single-label cycle C_n: refuting a triangle in it takes thousands of
// expansion steps, past DeadlineChecker's stride.
Graph Cycle(size_t n) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddNode(kC);
  for (size_t i = 0; i < n; ++i) {
    (void)b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return std::move(b).Build();
}

TEST(ContainmentTest, ExpiredDeadlineReportsCutNotRejection) {
  Graph triangle = MakeGraph({kC, kC, kC}, {{0, 1}, {1, 2}, {0, 2}});
  Graph cycle = Cycle(600);
  const EdgeSignature triangle_sig(triangle);
  const EdgeSignature cycle_sig(cycle);
  ASSERT_TRUE(triangle_sig.IsSubsetOf(cycle_sig));
  bool cut = false;
  ContainmentCounters counters;
  EXPECT_FALSE(Contains(triangle, triangle_sig, cycle, cycle_sig,
                        Deadline::AfterMillis(0), &cut, &counters));
  EXPECT_TRUE(cut) << "an undecided search must not read as a rejection";
  EXPECT_EQ(counters.vf2_calls, 1u);
  // Unbounded, the same search completes and rejects.
  EXPECT_FALSE(Contains(triangle, triangle_sig, cycle, cycle_sig, Deadline(),
                        &cut));
  EXPECT_FALSE(cut);
  // A signature rejection is a proof, so it stands under any deadline.
  Graph sulfur = MakeGraph({kS, kS}, {{0, 1}});
  EXPECT_FALSE(Contains(sulfur, EdgeSignature(sulfur), cycle, cycle_sig,
                        Deadline::AfterMillis(0), &cut));
  EXPECT_FALSE(cut);
}

TEST(ContainmentOracleTest, AidsFragmentsAgainstFixtureGraphs) {
  const auto& fixture = testing::AidsFixture::Get();
  const A2FIndex& a2f = fixture.indexes.a2f;
  ASSERT_GT(a2f.VertexCount(), 0u);
  Rng rng(2012);
  Sweep sweep;
  for (size_t i = 0; i < 2000; ++i) {
    const Graph& fragment =
        a2f.vertex(static_cast<A2fId>(rng.Below(a2f.VertexCount())))
            .fragment;
    const Graph& g =
        fixture.db.graph(static_cast<GraphId>(rng.Below(fixture.db.size())));
    CheckPair(fragment, g, &sweep);
    if (HasFatalFailure()) return;
  }
  // Both verdicts occur, and the signature earns its keep.
  EXPECT_GT(sweep.matches, 0u);
  EXPECT_LT(sweep.matches, sweep.pairs);
  EXPECT_GT(sweep.signature_rejections, 0u);
}

TEST(ContainmentOracleTest, RandomEdgeLabelledGraphs) {
  Sweep sweep;
  RandomSweep(7, 2000, {0, 1, 2}, {0, 1, 2}, &sweep);
  EXPECT_GT(sweep.matches, sweep.pairs / 3);
  EXPECT_GT(sweep.signature_rejections, 0u);
}

TEST(ContainmentOracleTest, LabelsWiderThanThePacking) {
  // Around the 21-bit node / 22-bit edge packing and at the top of the
  // Label range, where keys are hashed instead.
  const std::vector<Label> wide = {0,          (1u << 21) - 1, 1u << 21,
                                   1u << 22,   0xFFFFFFFEu,    0xFFFFFFFFu};
  Sweep sweep;
  RandomSweep(11, 1000, wide, wide, &sweep);
  EXPECT_GT(sweep.matches, sweep.pairs / 3);
  EXPECT_GT(sweep.signature_rejections, 0u);
}

TEST(DatabaseSignatureTest, ComputedOnAddAndSharedByCopies) {
  GraphDatabase db = testing::TinyDatabase();
  for (GraphId gid = 0; gid < db.size(); ++gid) {
    EXPECT_EQ(db.signature(gid), EdgeSignature(db.graph(gid)));
  }
  GraphDatabase copy = db;
  copy.Add(MakeGraph({kC, kN}, {{0, 1}}));
  for (GraphId gid = 0; gid < db.size(); ++gid) {
    EXPECT_EQ(&copy.signature(gid), &db.signature(gid))
        << "copies share each graph's signature";
  }
  EXPECT_EQ(copy.signature(static_cast<GraphId>(db.size())),
            EdgeSignature(copy.graph(static_cast<GraphId>(db.size()))));
}

}  // namespace
}  // namespace prague
