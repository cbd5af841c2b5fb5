// Observability layer: lock-free counters/gauges/histograms, the metric
// registry with Prometheus exposition, per-run traces, and the engine /
// session-manager instrumentation built on them. The concurrency tests
// here also run under TSan in CI (metrics-sanitizer job); the allocation
// test pins the zero-heap-allocations-per-record contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/prague_session.h"
#include "core/session_manager.h"
#include "counting_allocator.h"
#include "datasets/query_workload.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_fixtures.h"
#include "util/deadline.h"

namespace prague {
namespace {

using obs::Counter;
using obs::EngineMetrics;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::kHistogramBuckets;
using obs::MetricsRegistry;
using obs::RunTally;
using obs::RunTrace;
using obs::TraceRing;
using obs::TraceSpan;
using prague::testing::kC;
using prague::testing::kN;
using prague::testing::kS;

// ---------------------------------------------------------------------------
// Primitives.

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, AddSetValue) {
  Gauge g;
  g.Add(5);
  g.Add(-8);
  EXPECT_EQ(g.Value(), -3);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketIndexIsLogScale) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Everything at or beyond 2^38 lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 38), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), kHistogramBuckets - 1);
}

TEST(HistogramTest, BucketBoundsPartitionTheRange) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  for (size_t i = 1; i + 1 < kHistogramBuckets; ++i) {
    // Adjacent buckets tile without gap or overlap...
    EXPECT_EQ(Histogram::BucketLowerBound(i),
              Histogram::BucketUpperBound(i - 1) + 1);
    // ...and every bucket contains its own bounds.
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(i)), i);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)), i);
  }
}

TEST(HistogramTest, RecordSnapshotQuantile) {
  Histogram h;
  for (uint64_t v : {100u, 200u, 400u, 800u, 1600u}) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 3100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 620.0);
  // Quantiles are bucket-interpolated: exact values are not promised, but
  // they must be monotone and within a factor of two of the true value.
  double p50 = snap.Quantile(0.5);
  double p99 = snap.Quantile(0.99);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 800.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, 3200.0);
  EXPECT_EQ(HistogramSnapshot().Quantile(0.5), 0.0);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(HistogramTest, MergedShardsEqualSingleHistogram) {
  // Property: merging per-shard snapshots is *exactly* the histogram fed
  // every sample — bucket counts and sums are integers, no rounding.
  std::mt19937_64 rng(7);
  constexpr size_t kShards = 4;
  constexpr size_t kSamples = 20'000;
  Histogram single;
  Histogram shards[kShards];
  std::vector<uint64_t> values;
  values.reserve(kSamples);
  for (size_t i = 0; i < kSamples; ++i) {
    // Log-uniform over the full range, plus some exact zeros.
    uint64_t v = rng() >> (rng() % 64);
    if (i % 97 == 0) v = 0;
    values.push_back(v);
    single.Record(v);
    shards[i % kShards].Record(v);
  }
  HistogramSnapshot merged;
  for (const Histogram& shard : shards) merged.Merge(shard.Snapshot());
  HistogramSnapshot expected = single.Snapshot();
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(merged.count, kSamples);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), expected.Quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.Quantile(0.99), expected.Quantile(0.99));
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  // 8 writers hammering one histogram: relaxed atomics may interleave,
  // but no increment can be lost. This test is the TSan target for the
  // "record from any thread" contract.
  Histogram h;
  Counter c;
  Gauge g;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(t * kPerThread + i);
        c.Increment();
        g.Add(i % 2 == 0 ? 1 : -1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  HistogramSnapshot snap = h.Snapshot();
  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(snap.count, kTotal);
  // The values recorded were exactly 0..kTotal-1, once each.
  EXPECT_EQ(snap.sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(c.Value(), kTotal);
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, RecordingAllocatesNothing) {
  Histogram h;
  Counter c;
  Gauge g;
  // Warm up (first call can touch lazily-initialized state).
  h.Record(1);
  c.Increment();
  g.Add(1);
  uint64_t before = g_allocations.load();
  for (uint64_t i = 0; i < 10'000; ++i) {
    h.Record(i);
    c.Increment();
    g.Add(1);
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "metric recording must not touch the heap";
}

// ---------------------------------------------------------------------------
// Registry + Prometheus exposition.

TEST(RegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test_counter");
  Counter* b = registry.GetCounter("test_counter");
  EXPECT_EQ(a, b);
  // Force rebalancing inserts; the original node must not move.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler_" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("test_counter"), a);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("test_counter")),
            static_cast<void*>(a));
}

TEST(RegistryTest, SnapshotSeesRecordedValues) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(-5);
  registry.GetHistogram("h")->Record(7);
  obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.histograms.at("h").sum, 7u);
  registry.Reset();
  EXPECT_EQ(registry.Snapshot().counters.at("c"), 0u);
}

// Parses `name value` sample lines out of a Prometheus text block.
std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space, nullptr);
  }
  return samples;
}

TEST(RegistryTest, RenderPrometheusIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("demo_ops_total")->Increment(12);
  registry.GetGauge("demo_level")->Set(-2);
  Histogram* h = registry.GetHistogram("demo_latency_us");
  h->Record(0);
  h->Record(3);
  h->Record(500);
  std::string text = registry.RenderPrometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("# TYPE demo_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_level gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_latency_us histogram\n"),
            std::string::npos);

  std::map<std::string, double> samples = ParsePrometheus(text);
  EXPECT_EQ(samples.at("demo_ops_total"), 12);
  EXPECT_EQ(samples.at("demo_level"), -2);
  EXPECT_EQ(samples.at("demo_latency_us_count"), 3);
  EXPECT_EQ(samples.at("demo_latency_us_sum"), 503);
  EXPECT_EQ(samples.at("demo_latency_us_bucket{le=\"+Inf\"}"), 3);
  // Buckets are cumulative: le="0" sees only the zero sample, le="3"
  // includes both small values, and the +Inf line appears exactly once.
  EXPECT_EQ(samples.at("demo_latency_us_bucket{le=\"0\"}"), 1);
  EXPECT_EQ(samples.at("demo_latency_us_bucket{le=\"3\"}"), 2);
  size_t first = text.find("le=\"+Inf\"");
  EXPECT_EQ(text.find("le=\"+Inf\"", first + 1), std::string::npos);
}

TEST(RegistryTest, GlobalIsSingletonAndRenders) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
  // The engine structs register their metrics on first use.
  EngineMetrics::Get();
  obs::ServerMetrics::Get();
  std::string text = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(text.find("prague_engine_runs_total"), std::string::npos);
  EXPECT_NE(text.find("prague_engine_run_latency_us"), std::string::npos);
  EXPECT_NE(text.find("prague_server_frames_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Traces.

TEST(TraceTest, SpanRecordsIntoTrace) {
  RunTrace trace;
  {
    TraceSpan span(&trace, "phase-a");
    double first = span.Stop();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(span.Stop(), first);  // idempotent
  }
  { TraceSpan span(&trace, "phase-b"); }  // destructor stops
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_STREQ(trace.spans[0].name, "phase-a");
  EXPECT_STREQ(trace.spans[1].name, "phase-b");
  TraceSpan detached(nullptr, "nowhere");  // null trace is a plain timer
  EXPECT_GE(detached.Stop(), 0.0);
}

TEST(TraceTest, ToStringIsOneGreppableLine) {
  RunTrace trace;
  trace.session_tag = 9;
  trace.run_ordinal = 2;
  trace.similarity = true;
  trace.truncated = true;
  trace.deadline_phase = "similar-generation";
  trace.srt_seconds = 0.0125;
  trace.spans.push_back({"exact-verification", 0.004});
  std::string line = trace.ToString();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("session=9"), std::string::npos);
  EXPECT_NE(line.find("run#2"), std::string::npos);
  EXPECT_NE(line.find("truncated=1"), std::string::npos);
  EXPECT_NE(line.find("phase=similar-generation"), std::string::npos);
  EXPECT_NE(line.find("exact-verification"), std::string::npos);
}

TEST(TraceTest, RingEvictsOldestFirst) {
  TraceRing ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (uint64_t i = 1; i <= 5; ++i) {
    RunTrace t;
    t.run_ordinal = i;
    ring.Add(std::move(t));
  }
  EXPECT_EQ(ring.total_added(), 5u);
  std::vector<RunTrace> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].run_ordinal, 3u);
  EXPECT_EQ(recent[1].run_ordinal, 4u);
  EXPECT_EQ(recent[2].run_ordinal, 5u);
}

// ---------------------------------------------------------------------------
// Engine integration: sessions populate traces, tallies, and the global
// registry; the SRT phase-breakdown invariant holds on every path.

// Feeds a query spec into a session (same idiom as test_session.cc).
template <typename Session>
void Feed(Session* session, const Graph& q) {
  std::map<NodeId, NodeId> node_map;
  auto user_node = [&](NodeId n) {
    auto it = node_map.find(n);
    if (it != node_map.end()) return it->second;
    NodeId u = session->AddNode(q.NodeLabel(n));
    node_map.emplace(n, u);
    return u;
  };
  for (EdgeId e : DefaultFormulationSequence(q)) {
    const Edge& edge = q.GetEdge(e);
    ASSERT_TRUE(
        session->AddEdge(user_node(edge.u), user_node(edge.v), edge.label)
            .ok());
  }
}

// Triangle + pendant S: present in the tiny database but infrequent, so
// Run() takes the real exact-verification path.
Graph VerifiedQuery() {
  return testing::MakeGraph({kC, kC, kC, kS},
                            {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
}

// Triangle + pendant N: no exact match anywhere → similarity mode.
Graph SimilarityQuery() {
  return testing::MakeGraph({kC, kC, kC, kN},
                            {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
}

// The paper's invariant, checked directly on RunStats because assert() is
// compiled out of Release builds: the per-phase breakdown can never claim
// more time than the SRT it decomposes.
void ExpectPhaseBreakdownWithinSrt(const RunStats& stats) {
  EXPECT_LE(
      stats.candidate_seconds + stats.verification_seconds +
          stats.similarity_seconds,
      stats.srt_seconds + 1e-9)
      << "phase breakdown exceeds total SRT";
}

TEST(EngineObservabilityTest, RunPopulatesTraceAndStats) {
  const auto& fixture = testing::TinyFixture::Get();
  uint64_t runs_before = EngineMetrics::Get().runs_total->Value();
  uint64_t latency_before =
      EngineMetrics::Get().run_latency_us->Snapshot().count;
  PragueSession session(fixture.snapshot);
  Feed(&session, VerifiedQuery());
  RunStats stats;
  Result<QueryResults> results = session.Run(&stats);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->truncated);
  ExpectPhaseBreakdownWithinSrt(stats);

  const RunTrace& trace = session.last_run_trace();
  EXPECT_EQ(trace.run_ordinal, 1u);
  EXPECT_EQ(trace.query_edges, 4u);
  EXPECT_FALSE(trace.similarity);
  EXPECT_FALSE(trace.truncated);
  EXPECT_STREQ(trace.deadline_phase, "none");
  EXPECT_EQ(trace.result_count, results->exact.size());
  EXPECT_DOUBLE_EQ(trace.srt_seconds, stats.srt_seconds);
  // Formulation spans are always present; the verified path adds its own.
  ASSERT_GE(trace.spans.size(), 3u);
  EXPECT_STREQ(trace.spans[0].name, "formulation-spig");
  EXPECT_STREQ(trace.spans[1].name, "formulation-candidates");
  EXPECT_STREQ(trace.spans[2].name, "exact-verification");
  EXPECT_GT(trace.spans[0].seconds, 0.0);

  EXPECT_EQ(session.runs_completed(), 1u);
  EXPECT_EQ(EngineMetrics::Get().runs_total->Value(), runs_before + 1);
  EXPECT_EQ(EngineMetrics::Get().run_latency_us->Snapshot().count,
            latency_before + 1);
}

TEST(EngineObservabilityTest, TruncatedRunKeepsInvariantAndMarksTrace) {
  const auto& fixture = testing::TinyFixture::Get();
  PragueSession session(fixture.snapshot);
  Feed(&session, VerifiedQuery());
  RunStats stats;
  Result<QueryResults> results =
      session.Run(Deadline::AfterMillis(0), &stats);
  ASSERT_TRUE(results.ok());
  ASSERT_TRUE(results->truncated);
  ExpectPhaseBreakdownWithinSrt(stats);
  const RunTrace& trace = session.last_run_trace();
  EXPECT_TRUE(trace.truncated);
  EXPECT_STREQ(trace.deadline_phase, "exact-verification");
}

TEST(EngineObservabilityTest, SimilarityPathsKeepInvariant) {
  const auto& fixture = testing::TinyFixture::Get();
  // Unbounded similarity run.
  PragueSession session(fixture.snapshot);
  Feed(&session, SimilarityQuery());
  ASSERT_TRUE(session.similarity_mode());
  RunStats stats;
  Result<QueryResults> results = session.Run(&stats);
  ASSERT_TRUE(results.ok());
  ExpectPhaseBreakdownWithinSrt(stats);
  const RunTrace& trace = session.last_run_trace();
  EXPECT_TRUE(trace.similarity);
  EXPECT_EQ(trace.result_count, results->similar.size());

  // Truncated similarity run.
  PragueSession bounded(fixture.snapshot);
  Feed(&bounded, SimilarityQuery());
  RunStats cut;
  Result<QueryResults> partial =
      bounded.Run(Deadline::AfterMillis(0), &cut);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(partial->truncated);
  ExpectPhaseBreakdownWithinSrt(cut);
  EXPECT_TRUE(bounded.last_run_trace().truncated);
}

TEST(EngineObservabilityTest, AidsWorkloadKeepsInvariantAcrossBudgets) {
  // Sweep real queries across budgets (unbounded, tight, zero) on the
  // 300-graph fixture: the breakdown must account for at most the SRT on
  // every path, truncated or not.
  const auto& fixture = testing::AidsFixture::Get();
  WorkloadGenerator workload(&fixture.db, 23);
  for (int i = 0; i < 4; ++i) {
    Result<VisualQuerySpec> spec =
        workload.SimilarityQuery(6, 2, "m" + std::to_string(i));
    if (!spec.ok()) continue;
    for (int64_t budget_ms : {-1, 10, 0}) {
      PragueSession session(fixture.snapshot);
      Feed(&session, spec->graph);
      RunStats stats;
      Result<QueryResults> results =
          budget_ms < 0 ? session.Run(&stats)
                        : session.Run(Deadline::AfterMillis(budget_ms),
                                      &stats);
      ASSERT_TRUE(results.ok());
      ExpectPhaseBreakdownWithinSrt(stats);
      EXPECT_EQ(session.last_run_trace().truncated, results->truncated);
    }
  }
}

TEST(SessionManagerObservabilityTest, TallyTracesAndGauge) {
  const auto& fixture = testing::TinyFixture::Get();
  Gauge* open_gauge = EngineMetrics::Get().sessions_open;
  int64_t open_before = open_gauge->Value();
  SessionManager manager(fixture.snapshot);

  SessionManagerStats empty = manager.Stats();
  EXPECT_EQ(empty.runs_served, 0u);
  EXPECT_EQ(empty.runs_truncated, 0u);

  {
    std::shared_ptr<ManagedSession> a = manager.Open();
    std::shared_ptr<ManagedSession> b = manager.Open();
    EXPECT_EQ(open_gauge->Value(), open_before + 2);
    a->With([&](PragueSession& s) {
      Feed(&s, VerifiedQuery());
      ASSERT_TRUE(s.Run(nullptr).ok());
    });
    b->With([&](PragueSession& s) {
      Feed(&s, VerifiedQuery());
      RunStats stats;
      ASSERT_TRUE(s.Run(Deadline::AfterMillis(0), &stats).ok());
      EXPECT_TRUE(stats.truncated);
    });
    SessionManagerStats stats = manager.Stats();
    EXPECT_EQ(stats.runs_served, 2u);
    EXPECT_EQ(stats.runs_truncated, 1u);
  }
  // Sessions closed: the gauge returns to its baseline, the tally stays.
  EXPECT_EQ(open_gauge->Value(), open_before);
  SessionManagerStats after = manager.Stats();
  EXPECT_EQ(after.open_sessions, 0u);
  EXPECT_EQ(after.runs_served, 2u);
  EXPECT_EQ(after.runs_truncated, 1u);

  // Both runs landed in the shared trace ring, tagged with their session
  // ids, oldest first.
  std::vector<RunTrace> traces = manager.traces().Recent();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].session_tag, 1u);
  EXPECT_FALSE(traces[0].truncated);
  EXPECT_EQ(traces[1].session_tag, 2u);
  EXPECT_TRUE(traces[1].truncated);
}

// ---------------------------------------------------------------------------
// Labeled families: bounded cardinality, the "other" overflow series, and
// callback metrics evaluated at Snapshot() time.

TEST(LabeledMetricsTest, InternedSeriesHaveStablePointers) {
  MetricsRegistry registry;
  obs::LabeledCounter* family =
      registry.GetLabeledCounter("tenants_total", "tenant", 4);
  Counter* acme = family->WithLabel("acme");
  acme->Increment(3);
  EXPECT_EQ(family->WithLabel("acme"), acme);  // same pointer on re-lookup
  EXPECT_EQ(registry.GetLabeledCounter("tenants_total", "tenant"), family);
  EXPECT_EQ(acme->Value(), 3u);
}

TEST(LabeledMetricsTest, CardinalityIsBoundedByMaxSeries) {
  MetricsRegistry registry;
  obs::LabeledCounter* family =
      registry.GetLabeledCounter("bounded_total", "tenant", 3);
  // The first three distinct values intern; everything after shares one
  // overflow series, so a tenant-name flood cannot blow up the scrape.
  family->WithLabel("a")->Increment();
  family->WithLabel("b")->Increment();
  family->WithLabel("c")->Increment();
  Counter* d = family->WithLabel("d");
  Counter* e = family->WithLabel("e");
  EXPECT_EQ(d, e);  // both land on "other"
  d->Increment();
  e->Increment();
  // A literal "other" label is the overflow series too — no way to mint a
  // series that shadows the sentinel.
  EXPECT_EQ(family->WithLabel(obs::kOverflowLabelValue), d);

  std::vector<std::pair<std::string, uint64_t>> series = family->Series();
  ASSERT_EQ(series.size(), 4u);  // a, b, c, other
  uint64_t other_value = 0;
  for (const auto& [label, value] : series) {
    if (label == obs::kOverflowLabelValue) other_value = value;
  }
  EXPECT_EQ(other_value, 2u);
}

TEST(LabeledMetricsTest, LiteralOtherNeverCountsTowardCardinality) {
  MetricsRegistry registry;
  obs::LabeledCounter* family =
      registry.GetLabeledCounter("literal_other_total", "tenant", 2);
  Counter* other = family->WithLabel(obs::kOverflowLabelValue);
  other->Increment();
  // Both real slots are still free after touching "other".
  Counter* a = family->WithLabel("a");
  Counter* b = family->WithLabel("b");
  EXPECT_NE(a, other);
  EXPECT_NE(b, other);
  EXPECT_EQ(family->WithLabel("c"), other);  // now full: c overflows
}

TEST(LabeledMetricsTest, RenderGroupsSeriesUnderOneTypeLine) {
  MetricsRegistry registry;
  obs::LabeledCounter* family =
      registry.GetLabeledCounter("grouped_total", "tenant", 4);
  family->WithLabel("acme")->Increment(2);
  family->WithLabel("bob")->Increment(5);
  obs::LabeledHistogram* lat =
      registry.GetLabeledHistogram("grouped_latency_us", "tenant", 4);
  lat->WithLabel("acme")->Record(10);
  lat->WithLabel("acme")->Record(1000);

  std::string text = obs::RenderPrometheusText(registry.Snapshot());
  // Exactly one TYPE line per family, preceding all of its samples.
  size_t type_pos = text.find("# TYPE grouped_total counter\n");
  ASSERT_NE(type_pos, std::string::npos);
  EXPECT_EQ(text.find("# TYPE grouped_total", type_pos + 1),
            std::string::npos);
  size_t acme_pos = text.find("grouped_total{tenant=\"acme\"} 2\n");
  size_t bob_pos = text.find("grouped_total{tenant=\"bob\"} 5\n");
  ASSERT_NE(acme_pos, std::string::npos);
  ASSERT_NE(bob_pos, std::string::npos);
  EXPECT_GT(acme_pos, type_pos);
  EXPECT_GT(bob_pos, type_pos);

  // Labeled histograms render per-series buckets plus _sum/_count with the
  // tenant label alongside le.
  EXPECT_NE(text.find("# TYPE grouped_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("grouped_latency_us_bucket{tenant=\"acme\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("grouped_latency_us_count{tenant=\"acme\"} 2"),
            std::string::npos);
}

TEST(LabeledMetricsTest, LabelValuesAreEscapedInExposition) {
  EXPECT_EQ(obs::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeLabelValue("a\nb"), "a\\nb");

  MetricsRegistry registry;
  registry.GetLabeledCounter("escaped_total", "tenant", 4)
      ->WithLabel("we\"ird\\name")
      ->Increment();
  std::string text = obs::RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("escaped_total{tenant=\"we\\\"ird\\\\name\"} 1"),
            std::string::npos);
}

TEST(CallbackMetricsTest, EvaluatedAtSnapshotTime) {
  MetricsRegistry registry;
  std::atomic<uint64_t> pulled{7};
  registry.RegisterCallbackCounter("pulled_total",
                                   [&pulled] { return pulled.load(); });
  registry.RegisterCallbackGauge("depth",
                                 [] { return static_cast<int64_t>(-3); });
  obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("pulled_total"), 7u);
  EXPECT_EQ(snap.gauges.at("depth"), -3);
  pulled.store(9);  // a later snapshot sees the new value, no re-registering
  EXPECT_EQ(registry.Snapshot().counters.at("pulled_total"), 9u);
  std::string text = obs::RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("pulled_total 9\n"), std::string::npos);
}

TEST(CallbackMetricsTest, GlobalRegistryExportsLogSuppression) {
  // prague_log_suppressed_total is a callback over the logging module's
  // process-wide counter; it must appear in the global exposition.
  std::string text = obs::RenderPrometheusText(
      MetricsRegistry::Global().Snapshot());
  EXPECT_NE(text.find("# TYPE prague_log_suppressed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("prague_log_suppressed_total "), std::string::npos);
}


}  // namespace
}  // namespace prague
