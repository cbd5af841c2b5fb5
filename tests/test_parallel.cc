// ThreadPool and parallel-SPIG-construction correctness: parallel results
// must be byte-identical to sequential ones, and the memoized candidate
// engine must answer exactly like the cold path. Run()-time parallelism is
// the shard scatter, tested on a real pool in test_sharded.cc.

#include <gtest/gtest.h>

#include <atomic>

#include "core/candidates.h"
#include "core/prague_session.h"
#include "datasets/query_workload.h"
#include "test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace prague {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++touched[i];
  });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForSmallRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> touched(5, 0);
  pool.ParallelFor(5, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++touched[i];
  });
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ThreadPoolTest, ParallelForZeroMinChunkCoversRange) {
  // min_chunk = 0 used to divide by zero when sizing chunks; it now
  // behaves exactly like min_chunk = 1.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(64);
  pool.ParallelFor(64, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++touched[i];
  });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

// Asserts session `b` carries exactly the SPIG set of session `a`: every
// connected edge subset resolves (via the by-mask lookup) to a vertex
// with identical Edge List, level, canonical code, and Fragment List.
void ExpectIdenticalSpigs(const PragueSession& a, const PragueSession& b) {
  ASSERT_EQ(a.spigs().SpigCount(), b.spigs().SpigCount());
  ASSERT_EQ(a.spigs().TotalVertexCount(), b.spigs().TotalVertexCount());
  if (a.query().Empty()) return;
  const Graph& q = a.query().CurrentGraph();
  auto by_size = ConnectedEdgeSubsetsBySize(q);
  for (size_t k = 1; k <= q.EdgeCount(); ++k) {
    for (EdgeMask gmask : by_size[k]) {
      FormulationMask fmask = a.query().ToFormulationMask(gmask);
      const SpigVertex* va = a.spigs().FindVertex(fmask);
      const SpigVertex* vb = b.spigs().FindVertex(fmask);
      ASSERT_NE(va, nullptr) << "mask " << fmask;
      ASSERT_NE(vb, nullptr) << "mask " << fmask;
      EXPECT_EQ(va->edge_list, vb->edge_list);
      EXPECT_EQ(va->Level(), vb->Level());
      EXPECT_EQ(va->code, vb->code);
      EXPECT_EQ(va->frag.freq_id, vb->frag.freq_id);
      EXPECT_EQ(va->frag.dif_id, vb->frag.dif_id);
      EXPECT_EQ(va->frag.phi, vb->frag.phi);
      EXPECT_EQ(va->frag.upsilon, vb->frag.upsilon);
    }
  }
}

void ExpectIdenticalCandidates(const PragueSession& a,
                               const PragueSession& b) {
  EXPECT_EQ(a.exact_candidates(), b.exact_candidates());
  EXPECT_EQ(a.similarity_mode(), b.similarity_mode());
  EXPECT_EQ(a.similar_candidates().free, b.similar_candidates().free);
  EXPECT_EQ(a.similar_candidates().ver, b.similar_candidates().ver);
}

// Fuzzed 30-step add/delete/relabel session driven in lockstep through
// three engines: sequential build + memo (reference), parallel build
// (threads=4) + memo, and parallel build with the memo disabled (cold).
// All three must agree on SPIGs, by-mask lookups, and candidate sets
// after every step.
class SpigDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpigDeterminismTest, ParallelAndMemoizedMatchSequentialCold) {
  const auto& fixture = testing::TinyFixture::Get();
  Rng rng(GetParam() * 6271 + 5);
  PragueConfig seq_config;
  seq_config.spig_threads = 1;
  PragueConfig par_config;
  par_config.spig_threads = 4;
  PragueConfig cold_config;
  cold_config.spig_threads = 4;
  cold_config.candidate_memo = false;
  PragueSession seq(fixture.snapshot, seq_config);
  PragueSession par(fixture.snapshot, par_config);
  PragueSession cold(fixture.snapshot, cold_config);
  PragueSession* sessions[] = {&seq, &par, &cold};
  std::vector<Label> labels = {testing::kC, testing::kS, testing::kO,
                               testing::kN};

  int performed = 0;
  for (int step = 0; step < 60 && performed < 30; ++step) {
    size_t action = rng.Below(10);
    if (seq.query().Empty() || action < 5) {
      NodeId u, v;
      if (!seq.query().Empty() && rng.Chance(0.3) &&
          seq.query().UserNodeCount() >= 2) {
        u = static_cast<NodeId>(rng.Below(seq.query().UserNodeCount()));
        v = static_cast<NodeId>(rng.Below(seq.query().UserNodeCount()));
      } else if (seq.query().Empty()) {
        Label lu = labels[rng.Below(labels.size())];
        Label lv = labels[rng.Below(labels.size())];
        for (PragueSession* s : sessions) {
          u = s->AddNode(lu);
          v = s->AddNode(lv);
        }
      } else {
        Label lv = labels[rng.Below(labels.size())];
        u = static_cast<NodeId>(rng.Below(seq.query().UserNodeCount()));
        for (PragueSession* s : sessions) v = s->AddNode(lv);
      }
      if (seq.query().EdgeCount() >= 8) continue;  // keep it small
      bool ok = seq.AddEdge(u, v).ok();
      EXPECT_EQ(par.AddEdge(u, v).ok(), ok);
      EXPECT_EQ(cold.AddEdge(u, v).ok(), ok);
      if (!ok) continue;
      ++performed;
    } else if (action < 7) {
      std::vector<FormulationId> alive = seq.query().AliveEdgeIds();
      if (alive.empty()) continue;
      FormulationId ell = alive[rng.Below(alive.size())];
      if (!seq.query().CanDelete(ell)) continue;
      for (PragueSession* s : sessions) ASSERT_TRUE(s->DeleteEdge(ell).ok());
      ++performed;
    } else {
      if (seq.query().UserNodeCount() == 0) continue;
      NodeId n = static_cast<NodeId>(rng.Below(seq.query().UserNodeCount()));
      Label l = labels[rng.Below(labels.size())];
      for (PragueSession* s : sessions) {
        ASSERT_TRUE(s->RelabelNode(n, l).ok());
      }
      ++performed;
    }

    ExpectIdenticalSpigs(seq, par);
    ExpectIdenticalSpigs(seq, cold);
    ExpectIdenticalCandidates(seq, par);
    ExpectIdenticalCandidates(seq, cold);
  }
  EXPECT_GE(performed, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpigDeterminismTest,
                         ::testing::Range<uint64_t>(0, 8));

// A straight-line 10-edge formulation over the larger fixture, so the
// parallel build sees levels wide enough to actually fan out.
TEST(SpigDeterminismTest, TenEdgeQueryMatchesAcrossThreadCounts) {
  const auto& fixture = testing::AidsFixture::Get();
  WorkloadGenerator workload(&fixture.db, 321);
  Result<VisualQuerySpec> spec = workload.ContainmentQuery(10, "det10");
  ASSERT_TRUE(spec.ok());
  auto build = [&](size_t threads) {
    PragueConfig config;
    config.spig_threads = threads;
    auto session =
        std::make_unique<PragueSession>(fixture.snapshot, config);
    std::vector<NodeId> node_map(spec->graph.NodeCount(), kInvalidNode);
    for (EdgeId e : spec->sequence) {
      const Edge& edge = spec->graph.GetEdge(e);
      for (NodeId n : {edge.u, edge.v}) {
        if (node_map[n] == kInvalidNode) {
          node_map[n] = session->AddNode(spec->graph.NodeLabel(n));
        }
      }
      EXPECT_TRUE(
          session->AddEdge(node_map[edge.u], node_map[edge.v], edge.label)
              .ok());
    }
    return session;
  };
  auto one = build(1);
  auto four = build(4);
  ExpectIdenticalSpigs(*one, *four);
  ExpectIdenticalCandidates(*one, *four);
}

// The memoized candidate path must return exactly what a cold
// recomputation returns, including after deletions (caches survive) and
// relabels (caches reset).
TEST(CandidateMemoTest, CacheMatchesColdRecomputeAfterModifications) {
  const auto& fixture = testing::TinyFixture::Get();
  PragueSession session(fixture.snapshot);
  NodeId a = session.AddNode(testing::kC);
  NodeId b = session.AddNode(testing::kC);
  NodeId c = session.AddNode(testing::kS);
  NodeId d = session.AddNode(testing::kC);
  ASSERT_TRUE(session.AddEdge(a, b).ok());
  ASSERT_TRUE(session.AddEdge(b, c).ok());
  ASSERT_TRUE(session.AddEdge(c, d).ok());
  ASSERT_TRUE(session.AddEdge(a, d).ok());
  ASSERT_TRUE(session.RelabelNode(b, testing::kO).ok());
  ASSERT_TRUE(session.DeleteEdge(4).ok());

  session.spigs().ForEachVertexAtLevel(1, [&](const Spig&,
                                             const SpigVertex& v) {
    EXPECT_EQ(CachedSubCandidates(v, fixture.indexes),
              ExactSubCandidates(v, fixture.indexes));
  });
  const SimilarCandidates warm = SimilarSubCandidates(
      session.spigs(), session.query().EdgeCount(), 3, fixture.indexes, true);
  session.spigs().InvalidateCandidateCaches();
  const SimilarCandidates recomputed = SimilarSubCandidates(
      session.spigs(), session.query().EdgeCount(), 3, fixture.indexes,
      false);
  EXPECT_EQ(warm.free, recomputed.free);
  EXPECT_EQ(warm.ver, recomputed.ver);
  EXPECT_EQ(warm.TotalCandidates(), recomputed.TotalCandidates());
}

}  // namespace
}  // namespace prague
