// Shard-parallel execution: Run() splits its phases over contiguous
// graph-id ranges of the pinned snapshot and merges per-shard results.
// Every shard count — 1 included, which is the same path run inline — must
// return exactly what an index-free oracle says (VF2-free brute-force
// isomorphism for containment, ComputeMccs for similarity), in the same
// canonical order at every count, with prefix-consistent truncation under
// deadlines and cancellation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prague_session.h"
#include "core/session_manager.h"
#include "core/shard_exec.h"
#include "datasets/query_workload.h"
#include "graph/brute_force_iso.h"
#include "obs/metrics.h"
#include "test_fixtures.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace prague {
namespace {

using testing::kC;
using testing::kN;
using testing::kS;

// Feeds a query spec into a session (same idiom as test_session.cc).
void Feed(PragueSession* session, const Graph& q,
          const std::vector<EdgeId>& sequence) {
  std::map<NodeId, NodeId> node_map;
  auto user_node = [&](NodeId n) {
    auto it = node_map.find(n);
    if (it != node_map.end()) return it->second;
    NodeId u = session->AddNode(q.NodeLabel(n));
    node_map.emplace(n, u);
    return u;
  };
  for (EdgeId e : sequence) {
    const Edge& edge = q.GetEdge(e);
    if (!session->AddEdge(user_node(edge.u), user_node(edge.v), edge.label)
             .ok()) {
      std::abort();
    }
  }
}

// An exact-mode (containment) query and a similarity query over the
// 300-graph AIDS fixture; both heavy enough to touch many shards.
const VisualQuerySpec& ExactAidsQuery() {
  static const VisualQuerySpec* spec = [] {
    const auto& fixture = testing::AidsFixture::Get();
    WorkloadGenerator workload(&fixture.db, 53);
    for (size_t edges : {7, 6, 5, 4}) {
      Result<VisualQuerySpec> s = workload.ContainmentQuery(edges, "exact");
      if (s.ok()) return new VisualQuerySpec(std::move(*s));
    }
    std::abort();
  }();
  return *spec;
}

const VisualQuerySpec& SimilarAidsQuery() {
  static const VisualQuerySpec* spec = [] {
    const auto& fixture = testing::AidsFixture::Get();
    WorkloadGenerator workload(&fixture.db, 47);
    for (int mutations = 3; mutations >= 1; --mutations) {
      Result<VisualQuerySpec> s =
          workload.SimilarityQuery(8, mutations, "sharded");
      if (s.ok()) return new VisualQuerySpec(std::move(*s));
    }
    std::abort();
  }();
  return *spec;
}

// The three ways a Run() produces its answer.
enum class Mode {
  kExact,     // containment: verification of Rq
  kFallback,  // verification found nothing; similarity candidates derived
              // at Run() time (Algorithm 1 lines 19-21)
  kWarm,      // simFlag set before Run(); formulation-time candidates
};

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kExact:
      return "exact";
    case Mode::kFallback:
      return "fallback";
    case Mode::kWarm:
      return "warm";
  }
  return "?";
}

const Mode kModes[] = {Mode::kExact, Mode::kFallback, Mode::kWarm};

const VisualQuerySpec& QueryFor(Mode mode) {
  return mode == Mode::kFallback ? SimilarAidsQuery() : ExactAidsQuery();
}

// Shards 1 (inline) through 7 (more shards than pool workers).
const size_t kShardCounts[] = {1, 2, 4, 7};

std::shared_ptr<ThreadPool> SharedPool() {
  static auto* pool = new std::shared_ptr<ThreadPool>(
      std::make_shared<ThreadPool>(4));
  return *pool;
}

PragueConfig ShardedConfig(size_t shards) {
  PragueConfig config;
  config.shards = shards;
  config.shard_pool = SharedPool();
  return config;
}

// A session with `mode`'s query formulated and ready to Run().
std::unique_ptr<PragueSession> Formulated(Mode mode,
                                          const PragueConfig& config) {
  const auto& fixture = testing::AidsFixture::Get();
  const VisualQuerySpec& spec = QueryFor(mode);
  auto session = std::make_unique<PragueSession>(fixture.snapshot, config);
  Feed(session.get(), spec.graph, spec.sequence);
  if (mode == Mode::kWarm && !session->EnableSimilarity().ok()) std::abort();
  return session;
}

// Whether Run() touches the database: every mode but an exact query whose
// full graph is an indexed frequent fragment or DIF (its Rq is the answer).
bool DoesDatabaseWork(Mode mode, const PragueSession& session) {
  if (mode != Mode::kExact) return true;
  const SpigVertex* target =
      session.spigs().FindVertex(session.query().FullMask());
  if (target == nullptr) std::abort();
  return !(target->frag.IsFrequent() || target->frag.IsDif());
}

// --- Oracles: no index, no SPIG, no VF2. ---------------------------------

// Ascending ids of the graphs containing q, by exhaustive isomorphism.
const std::vector<GraphId>& ExactOracle(const VisualQuerySpec& spec) {
  static std::map<const VisualQuerySpec*, std::vector<GraphId>> cache;
  auto it = cache.find(&spec);
  if (it != cache.end()) return it->second;
  const auto& fixture = testing::AidsFixture::Get();
  std::vector<GraphId> out;
  for (GraphId gid = 0; gid < fixture.db.size(); ++gid) {
    if (BruteForceSubgraphIsomorphic(spec.graph, fixture.db.graph(gid))) {
      out.push_back(gid);
    }
  }
  return cache.emplace(&spec, std::move(out)).first->second;
}

// gid → dist(q, g) for every graph within σ, by ComputeMccs.
const std::map<GraphId, int>& SimilarOracle(const VisualQuerySpec& spec,
                                            int sigma) {
  static std::map<std::pair<const VisualQuerySpec*, int>,
                  std::map<GraphId, int>>
      cache;
  auto key = std::make_pair(&spec, sigma);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const auto& fixture = testing::AidsFixture::Get();
  std::vector<std::pair<GraphId, int>> hits =
      testing::BruteForceSimilaritySearch(fixture.db, spec.graph, sigma);
  return cache.emplace(key, std::map<GraphId, int>(hits.begin(), hits.end()))
      .first->second;
}

// Similarity answers against the oracle: distinct graphs, each at its true
// distance, in non-decreasing distance order; complete when top_k is 0,
// otherwise exactly the min(k, |oracle|) most similar graphs.
void ExpectSimilarMatchesOracle(const std::vector<SimilarMatch>& got,
                                const std::map<GraphId, int>& oracle,
                                size_t top_k) {
  std::map<GraphId, int> seen;
  int last_distance = 0;
  for (const SimilarMatch& m : got) {
    auto it = oracle.find(m.gid);
    ASSERT_NE(it, oracle.end()) << "g" << m.gid << " is not within sigma";
    EXPECT_EQ(m.distance, it->second) << "g" << m.gid;
    EXPECT_GE(m.distance, last_distance) << "g" << m.gid;
    last_distance = m.distance;
    EXPECT_TRUE(seen.emplace(m.gid, m.distance).second) << "dup g" << m.gid;
  }
  if (top_k == 0) {
    EXPECT_EQ(got.size(), oracle.size());
    return;
  }
  EXPECT_EQ(got.size(), std::min(top_k, oracle.size()));
  for (const auto& [gid, distance] : oracle) {
    if (!seen.contains(gid)) {
      EXPECT_GE(distance, last_distance) << "g" << gid << " was skipped";
    }
  }
}

void ExpectMatchesOracle(Mode mode, const QueryResults& got, int sigma,
                         size_t top_k = 0) {
  EXPECT_FALSE(got.truncated);
  const VisualQuerySpec& spec = QueryFor(mode);
  if (mode == Mode::kExact) {
    ASSERT_FALSE(got.similarity);
    EXPECT_EQ(got.exact, ExactOracle(spec));
    return;
  }
  ASSERT_TRUE(got.similarity);
  EXPECT_TRUE(got.exact.empty());
  ExpectSimilarMatchesOracle(got.similar, SimilarOracle(spec, sigma), top_k);
}

void ExpectSameResults(const QueryResults& got, const QueryResults& want) {
  EXPECT_EQ(got.similarity, want.similarity);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.similar, want.similar);
}

// `part` is a prefix of the unbounded answer `full`, and equal to it when
// nothing was cut.
void ExpectPrefixOf(const QueryResults& part, const QueryResults& full) {
  if (part.similarity != full.similarity) {
    // Cut in exact verification before the similarity fallback: nothing
    // was decided yet.
    EXPECT_TRUE(part.truncated);
    EXPECT_TRUE(part.exact.empty());
    EXPECT_TRUE(part.similar.empty());
    return;
  }
  ASSERT_LE(part.exact.size(), full.exact.size());
  EXPECT_TRUE(std::equal(part.exact.begin(), part.exact.end(),
                         full.exact.begin()));
  ASSERT_LE(part.similar.size(), full.similar.size());
  EXPECT_TRUE(std::equal(part.similar.begin(), part.similar.end(),
                         full.similar.begin()));
  if (!part.truncated) ExpectSameResults(part, full);
}

// ---------------------------------------------------------------------------
// ShardPlan: ranges over the pinned database.

TEST(ShardPlanTest, RangesAreContiguousAndExhaustive) {
  for (size_t db_size : {1u, 6u, 300u}) {
    for (size_t shards : kShardCounts) {
      ShardPlan plan = ShardPlan::Make(db_size, shards, SharedPool().get());
      ASSERT_EQ(plan.shard_count(), std::min(shards, db_size));
      GraphId expect_begin = 0;
      for (const ShardRange& range : plan.ranges) {
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_GT(range.end, range.begin);  // clamped: never empty
        expect_begin = range.end;
      }
      EXPECT_EQ(expect_begin, static_cast<GraphId>(db_size));
    }
  }
}

TEST(ShardPlanTest, ShardCountIsClamped) {
  EXPECT_EQ(ShardCount(0, 300), 1u);
  EXPECT_EQ(ShardCount(1000, 6), 6u);
  // An empty database still runs: one empty range.
  ShardPlan empty = ShardPlan::Make(0, 4, SharedPool().get());
  ASSERT_EQ(empty.shard_count(), 1u);
  EXPECT_EQ(empty.ranges[0].begin, empty.ranges[0].end);
}

TEST(ShardPlanTest, SingleShardRunsInline) {
  EXPECT_EQ(ShardPlan::Make(300, 1, SharedPool().get()).pool, nullptr);
  EXPECT_EQ(ShardPlan::Make(300, 4, SharedPool().get()).pool,
            SharedPool().get());
}

TEST(ShardPlanTest, NoPoolRunsAsOneShard) {
  // Splitting with nothing to scatter to would only add merge cost.
  ShardPlan plan = ShardPlan::Make(300, 4, nullptr);
  ASSERT_EQ(plan.shard_count(), 1u);
  EXPECT_EQ(plan.ranges[0].begin, 0u);
  EXPECT_EQ(plan.ranges[0].end, 300u);
  EXPECT_EQ(plan.pool, nullptr);
}

// ---------------------------------------------------------------------------
// MergeShardSimilar: the pure merge, driven directly.

ShardSimilarPartial MakePartial(std::vector<SimilarMatch> matches) {
  ShardSimilarPartial p;
  p.matches = std::move(matches);
  return p;
}

TEST(ShardMergeTest, ConcatenatesBucketsInShardOrder) {
  // Bucket order: distance ascending, free (verified=false) before ver.
  std::vector<ShardSimilarPartial> partials;
  partials.push_back(MakePartial({{0, 1, false}, {2, 1, true}, {4, 2, false}}));
  partials.push_back(MakePartial({{7, 1, false}, {9, 2, false}}));
  bool truncated = false;
  SimilarGenStats stats;
  std::vector<SimilarMatch> merged =
      MergeShardSimilar(partials, /*top_k=*/0, &stats, &truncated);
  std::vector<SimilarMatch> expected = {
      {0, 1, false}, {7, 1, false}, {2, 1, true}, {4, 2, false}, {9, 2, false}};
  EXPECT_EQ(merged, expected);
  EXPECT_FALSE(truncated);
}

TEST(ShardMergeTest, StopsAtEarliestCutBucket) {
  // Shard 0 was cut inside bucket (2, free): the merge may emit everything
  // strictly before that bucket, plus shard 0's own prefix of it, and must
  // drop later shards' contributions to the cut bucket.
  std::vector<ShardSimilarPartial> partials;
  partials.push_back(MakePartial({{0, 1, false}, {4, 2, false}}));
  partials[0].truncated = true;
  partials[0].cut = SimilarGenCut{2, false};
  partials.push_back(
      MakePartial({{7, 1, false}, {8, 2, false}, {9, 2, true}}));
  bool truncated = false;
  std::vector<SimilarMatch> merged =
      MergeShardSimilar(partials, 0, nullptr, &truncated);
  std::vector<SimilarMatch> expected = {
      {0, 1, false}, {7, 1, false}, {4, 2, false}};
  EXPECT_EQ(merged, expected);
  EXPECT_TRUE(truncated);
}

TEST(ShardMergeTest, TopKBeforeCutIsNotTruncated) {
  // Full-wins rule: reaching k before the cut bucket means the caller gets
  // the same answer an untruncated run would have produced.
  std::vector<ShardSimilarPartial> partials;
  partials.push_back(MakePartial({{0, 1, false}, {1, 1, false}}));
  partials[0].truncated = true;
  partials[0].cut = SimilarGenCut{3, false};
  bool truncated = false;
  std::vector<SimilarMatch> merged =
      MergeShardSimilar(partials, /*top_k=*/2, nullptr, &truncated);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_FALSE(truncated);
}

TEST(ShardMergeTest, SumsStatsAcrossAllShards) {
  std::vector<ShardSimilarPartial> partials(3);
  for (size_t s = 0; s < partials.size(); ++s) {
    partials[s].stats.verified = 1;
    partials[s].stats.rejected = 2;
    partials[s].stats.verification_free = 3;
    partials[s].stats.vf2_calls = 4;
    partials[s].stats.nodes_expanded = 5;
  }
  SimilarGenStats stats;
  MergeShardSimilar(partials, 0, &stats, nullptr);
  EXPECT_EQ(stats.verified, 3u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.verification_free, 9u);
  EXPECT_EQ(stats.vf2_calls, 12u);
  EXPECT_EQ(stats.nodes_expanded, 15u);
}

// ---------------------------------------------------------------------------
// End to end: every shard count returns the oracle's answer, in one order.

TEST(ShardDeterminismTest, EveryModeMatchesOracleAtEveryShardCount) {
  for (Mode mode : kModes) {
    std::unique_ptr<PragueSession> reference = Formulated(mode, PragueConfig());
    Result<QueryResults> want = reference->Run(nullptr);
    ASSERT_TRUE(want.ok());
    for (size_t shards : kShardCounts) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " shards " +
                   std::to_string(shards));
      std::unique_ptr<PragueSession> session =
          Formulated(mode, ShardedConfig(shards));
      RunStats stats;
      Result<QueryResults> got = session->Run(&stats);
      ASSERT_TRUE(got.ok());
      ExpectMatchesOracle(mode, *got, session->sigma());
      ExpectSameResults(*got, *want);
      // SRT invariant: the phase breakdown never exceeds the wall clock.
      EXPECT_LE(stats.candidate_seconds + stats.verification_seconds +
                    stats.similarity_seconds,
                stats.srt_seconds + 1e-9);
    }
  }
}

TEST(ShardDeterminismTest, TopKMatchesOracle) {
  for (Mode mode : {Mode::kFallback, Mode::kWarm}) {
    for (size_t top_k : {1u, 5u, 20u}) {
      for (size_t shards : kShardCounts) {
        SCOPED_TRACE(std::string(ModeName(mode)) + " top_k " +
                     std::to_string(top_k) + " shards " +
                     std::to_string(shards));
        PragueConfig config = ShardedConfig(shards);
        config.top_k = top_k;
        std::unique_ptr<PragueSession> session = Formulated(mode, config);
        Result<QueryResults> got = session->Run(nullptr);
        ASSERT_TRUE(got.ok());
        ExpectMatchesOracle(mode, *got, session->sigma(), top_k);
      }
    }
  }
}

// A run cut before it starts, by an expired deadline or a fired token: when
// the run touches the database, every shard count must see the cut (it is
// polled inside the shard tasks), report where, and return a prefix of the
// unbounded answer identical to the single-shard one.
void ExpectCutBeforeStartAtEveryShardCount(const Deadline& cut) {
  for (Mode mode : kModes) {
    std::unique_ptr<PragueSession> unbounded = Formulated(mode, PragueConfig());
    Result<QueryResults> full = unbounded->Run(nullptr);
    ASSERT_TRUE(full.ok());
    std::unique_ptr<PragueSession> reference = Formulated(mode, PragueConfig());
    const bool database_work = DoesDatabaseWork(mode, *reference);
    RunStats want_stats;
    Result<QueryResults> want = reference->Run(cut, &want_stats);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(want->truncated, database_work) << ModeName(mode);
    for (size_t shards : kShardCounts) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " shards " +
                   std::to_string(shards));
      std::unique_ptr<PragueSession> session =
          Formulated(mode, ShardedConfig(shards));
      RunStats stats;
      Result<QueryResults> got = session->Run(cut, &stats);
      ASSERT_TRUE(got.ok());
      if (database_work) {
        EXPECT_TRUE(got->truncated);
        EXPECT_TRUE(stats.truncated);
        EXPECT_NE(stats.deadline_phase, RunPhase::kNone);
      }
      ExpectPrefixOf(*got, *full);
      ExpectSameResults(*got, *want);
      EXPECT_EQ(stats.deadline_phase, want_stats.deadline_phase);
    }
  }
}

TEST(ShardDeterminismTest, PreExpiredDeadlineIsPrefixAtEveryShardCount) {
  ExpectCutBeforeStartAtEveryShardCount(Deadline::AfterMillis(0));
}

TEST(ShardDeterminismTest, PreFiredCancelIsPrefixAtEveryShardCount) {
  // Formulation steps poll the config token too, so the pre-fired token is
  // injected only at Run() time, via the deadline.
  CancellationToken fired;
  fired.RequestStop();
  ExpectCutBeforeStartAtEveryShardCount(Deadline().WithToken(&fired));
}

TEST(ShardDeterminismTest, MidRunCancelYieldsPrefixOfUnbounded) {
  // A run here takes well under a millisecond, so the cancel is swept from
  // "at once" upward until a run finishes before it lands. A run can end
  // before even an at-once cancel when the canceller thread waits for a
  // busy CPU (runs take tens of µs), so a sweep that cut nothing is
  // retried, a bounded number of times.
  constexpr int kSweepAttempts = 20;
  size_t cut_runs = 0;
  for (Mode mode : {Mode::kFallback, Mode::kWarm}) {
    std::unique_ptr<PragueSession> unbounded = Formulated(mode, PragueConfig());
    Result<QueryResults> full = unbounded->Run(nullptr);
    ASSERT_TRUE(full.ok());
    ASSERT_FALSE(full->truncated);
    ExpectMatchesOracle(mode, *full, unbounded->sigma());
    for (size_t shards : kShardCounts) {
      std::unique_ptr<PragueSession> session =
          Formulated(mode, ShardedConfig(shards));
      const size_t cut_before = cut_runs;
      for (int attempt = 0; attempt < kSweepAttempts && cut_runs == cut_before;
           ++attempt) {
        for (int64_t delay_us = 0; delay_us <= 5120;
             delay_us = delay_us == 0 ? 10 : delay_us * 2) {
          SCOPED_TRACE(std::string(ModeName(mode)) + " shards " +
                       std::to_string(shards) + " delay_us " +
                       std::to_string(delay_us));
          CancellationToken token;
          std::thread canceller([&] {
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
            token.RequestStop();
          });
          Result<QueryResults> part =
              session->Run(Deadline().WithToken(&token), nullptr);
          canceller.join();
          ASSERT_TRUE(part.ok());
          // Whether or not the cancel landed in time, the output must be a
          // prefix of the unbounded merged order.
          ExpectPrefixOf(*part, *full);
          if (!part->truncated) break;
          ++cut_runs;
        }
      }
    }
  }
  EXPECT_GT(cut_runs, 0u);
}

// The same sweep with time budgets, which land more precisely than a
// cancel from another thread: every truncated answer must still be a
// prefix of the unbounded one.
TEST(ShardDeterminismTest, BudgetSweepCutsArePrefixesOfUnbounded) {
  size_t cut_runs = 0;
  for (Mode mode : {Mode::kFallback, Mode::kWarm}) {
    std::unique_ptr<PragueSession> unbounded = Formulated(mode, PragueConfig());
    Result<QueryResults> full = unbounded->Run(nullptr);
    ASSERT_TRUE(full.ok());
    for (size_t shards : kShardCounts) {
      std::unique_ptr<PragueSession> session =
          Formulated(mode, ShardedConfig(shards));
      for (int64_t budget_us = 10; budget_us <= 20480; budget_us *= 2) {
        SCOPED_TRACE(std::string(ModeName(mode)) + " shards " +
                     std::to_string(shards) + " budget_us " +
                     std::to_string(budget_us));
        Result<QueryResults> part = session->Run(
            Deadline::At(std::chrono::steady_clock::now() +
                         std::chrono::microseconds(budget_us)),
            nullptr);
        ASSERT_TRUE(part.ok());
        ExpectPrefixOf(*part, *full);
        if (!part->truncated) break;
        ++cut_runs;
      }
    }
  }
  EXPECT_GT(cut_runs, 0u);
}

// ---------------------------------------------------------------------------
// RunStats and RunTrace shape: a single shard looks like no sharding at
// all; more shards only add per-shard spans and shard metrics.

std::vector<std::string> WholeRunSpanNames(const obs::RunTrace& trace) {
  std::vector<std::string> names;
  for (const obs::SpanRecord& span : trace.spans) {
    if (span.shard < 0) names.push_back(span.name);
  }
  return names;
}

std::map<std::string, size_t> ShardSpanCounts(const obs::RunTrace& trace) {
  std::map<std::string, size_t> counts;
  for (const obs::SpanRecord& span : trace.spans) {
    if (span.shard >= 0) ++counts[span.name];
  }
  return counts;
}

TEST(ShardRunShapeTest, SingleShardRecordsNoShardSpansOrMetrics) {
  obs::EngineMetrics& em = obs::EngineMetrics::Get();
  // shards = 1 on a pool, and shards = 4 with no pool to scatter to.
  PragueConfig no_pool;
  no_pool.shards = 4;
  for (Mode mode : kModes) {
    for (const PragueConfig& config : {ShardedConfig(1), no_pool}) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " shards " +
                   std::to_string(config.shards));
      std::unique_ptr<PragueSession> session = Formulated(mode, config);
      const bool verification_free = !DoesDatabaseWork(mode, *session);
      const uint64_t runs_before = em.shard_runs_total->Value();
      const uint64_t tasks_before = em.shard_tasks_total->Value();
      RunStats stats;
      ASSERT_TRUE(session->Run(&stats).ok());
      EXPECT_EQ(em.shard_runs_total->Value(), runs_before);
      EXPECT_EQ(em.shard_tasks_total->Value(), tasks_before);
      const obs::RunTrace& trace = session->last_run_trace();
      EXPECT_TRUE(ShardSpanCounts(trace).empty());
      std::vector<std::string> want = {"formulation-spig",
                                       "formulation-candidates"};
      switch (mode) {
        case Mode::kExact:
          if (!verification_free) want.push_back("exact-verification");
          break;
        case Mode::kFallback:
          want.push_back("exact-verification");
          want.push_back("similar-candidates");
          want.push_back("similar-generation");
          EXPECT_GT(stats.candidate_seconds, 0);
          break;
        case Mode::kWarm:
          want.push_back("similar-generation");
          EXPECT_EQ(stats.candidate_seconds, 0);
          break;
      }
      EXPECT_EQ(WholeRunSpanNames(trace), want);
    }
  }
}

TEST(ShardRunShapeTest, MoreShardsAddOnlyShardSpansAndMetrics) {
  obs::EngineMetrics& em = obs::EngineMetrics::Get();
  for (Mode mode : kModes) {
    std::unique_ptr<PragueSession> single =
        Formulated(mode, ShardedConfig(1));
    RunStats want;
    ASSERT_TRUE(single->Run(&want).ok());
    const std::vector<std::string> want_names =
        WholeRunSpanNames(single->last_run_trace());
    // One scatter per whole-run phase that touches the database.
    size_t scatters = 0;
    for (const std::string& name : want_names) {
      if (name == "exact-verification" || name == "similar-generation") {
        ++scatters;
      }
    }
    for (size_t shards : {2u, 4u, 7u}) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " shards " +
                   std::to_string(shards));
      std::unique_ptr<PragueSession> session =
          Formulated(mode, ShardedConfig(shards));
      const uint64_t runs_before = em.shard_runs_total->Value();
      const uint64_t tasks_before = em.shard_tasks_total->Value();
      RunStats stats;
      ASSERT_TRUE(session->Run(&stats).ok());
      EXPECT_EQ(em.shard_runs_total->Value() - runs_before, scatters);
      EXPECT_EQ(em.shard_tasks_total->Value() - tasks_before,
                scatters * shards);
      const obs::RunTrace& trace = session->last_run_trace();
      EXPECT_EQ(WholeRunSpanNames(trace), want_names);
      std::map<std::string, size_t> shard_spans = ShardSpanCounts(trace);
      EXPECT_EQ(shard_spans.size(), scatters);
      for (const auto& [name, count] : shard_spans) {
        EXPECT_EQ(count, shards) << name;
      }
      // The fallback derives its candidates before the scatter, as one
      // shard does.
      EXPECT_EQ(stats.candidate_seconds > 0, want.candidate_seconds > 0);
      // Work counters do not depend on who did the work.
      EXPECT_EQ(stats.verified, want.verified);
      EXPECT_EQ(stats.rejected, want.rejected);
      EXPECT_EQ(stats.nodes_expanded, want.nodes_expanded);
      EXPECT_EQ(stats.similar.verification_free,
                want.similar.verification_free);
      EXPECT_EQ(stats.similar.verified, want.similar.verified);
      EXPECT_EQ(stats.similar.rejected, want.similar.rejected);
      EXPECT_EQ(stats.similar.vf2_calls, want.similar.vf2_calls);
      EXPECT_EQ(stats.truncated, want.truncated);
      EXPECT_EQ(stats.deadline_phase, want.deadline_phase);
    }
  }
}

// ---------------------------------------------------------------------------
// SessionManager: shared pool, concurrent append, STATS exposure.

TEST(ShardedSessionManagerTest, SharedPoolServesOracleResults) {
  const auto& fixture = testing::AidsFixture::Get();
  const VisualQuerySpec& spec = SimilarAidsQuery();
  SessionManager plain(fixture.snapshot);
  PragueConfig config;
  config.shards = 4;
  SessionManager sharded(fixture.snapshot, config);
  EXPECT_EQ(plain.Stats().shards, 1u);
  EXPECT_EQ(sharded.Stats().shards, 4u);
  auto run = [&](SessionManager* manager) {
    auto session = manager->Open();
    return session->With([&](PragueSession& s) {
      Feed(&s, spec.graph, spec.sequence);
      return s.Run(nullptr);
    });
  };
  Result<QueryResults> want = run(&plain);
  Result<QueryResults> got = run(&sharded);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectMatchesOracle(Mode::kFallback, *got, PragueConfig().sigma);
  ExpectSameResults(*got, *want);
}

TEST(ShardedSessionManagerTest, PublishWhileQueryingKeepsOldSessionsStable) {
  const auto& tiny = testing::TinyFixture::Get();
  PragueConfig config;
  config.shards = 3;
  SessionManager manager(tiny.snapshot, config);
  auto old_session = manager.Open();
  Graph q = testing::MakeGraph({kC, kC, kC, kS},
                               {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
  Result<QueryResults> before = old_session->With([&](PragueSession& s) {
    Feed(&s, q, DefaultFormulationSequence(q));
    return s.Run(nullptr);
  });
  ASSERT_TRUE(before.ok());

  // Concurrent appends race the old session's repeated runs; its shard
  // ranges come from its pinned snapshot, so it keeps answering from the
  // old graphs.
  std::thread appender([&] {
    for (int round = 0; round < 4; ++round) {
      std::vector<Graph> extra = {
          testing::MakeGraph({kC, kC, kN}, {{0, 1}, {1, 2}})};
      EXPECT_TRUE(manager.Append(std::move(extra), /*alpha=*/0.34).ok());
    }
  });
  for (int round = 0; round < 8; ++round) {
    Result<QueryResults> during =
        old_session->With([](PragueSession& s) { return s.Run(nullptr); });
    ASSERT_TRUE(during.ok());
    EXPECT_EQ(during->exact, before->exact);
  }
  appender.join();
  EXPECT_EQ(manager.Stats().shards, 3u);
  EXPECT_EQ(manager.current()->version(), 4u);

  // A session opened now pins the appended snapshot, still sharded.
  auto fresh = manager.Open();
  Result<QueryResults> after = fresh->With([&](PragueSession& s) {
    Feed(&s, q, DefaultFormulationSequence(q));
    return s.Run(nullptr);
  });
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->exact, before->exact);  // appended graphs don't match q
}

}  // namespace
}  // namespace prague
