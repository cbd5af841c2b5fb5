// Micro-benchmarks (google-benchmark) for the hot primitives: VF2,
// canonical codes, connected-subset enumeration, MCCS, SPIG construction,
// candidate generation, and IdSet algebra.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/candidates.h"
#include "graph/cam_code.h"
#include "graph/canonical.h"
#include "graph/edge_signature.h"
#include "graph/mccs.h"
#include "graph/vf2.h"
#include "index/df_store.h"
#include "index/index_maintenance.h"
#include "util/thread_pool.h"
#include "util/rng.h"

using namespace prague;
using namespace prague::bench;

namespace {

// One shared small workbench for the session-level micro-benchmarks.
const Workbench& SmallBench() {
  static Workbench* bench =
      new Workbench(BuildAidsWorkbench(500, 0.1, 4));
  return *bench;
}

const std::vector<VisualQuerySpec>& MicroQueries() {
  static auto* queries = [] {
    WorkloadGenerator workload(&SmallBench().db, 5);
    auto* out = new std::vector<VisualQuerySpec>();
    Result<VisualQuerySpec> a = workload.ContainmentQuery(7, "micro-c");
    Result<VisualQuerySpec> b = workload.SimilarityQuery(7, 2, "micro-s");
    if (!a.ok() || !b.ok()) std::abort();
    out->push_back(std::move(*a));
    out->push_back(std::move(*b));
    return out;
  }();
  return *queries;
}

void BM_Vf2Exists(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  const Graph& pattern = MicroQueries()[0].graph;
  size_t gid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IsSubgraphIsomorphic(pattern, bench.db.graph(gid)));
    gid = (gid + 1) % bench.db.size();
  }
}
BENCHMARK(BM_Vf2Exists);

void BM_MinimumDfsCode(benchmark::State& state) {
  const Graph& q = MicroQueries()[0].graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimumDfsCode(q));
  }
}
BENCHMARK(BM_MinimumDfsCode);

void BM_CamCode(benchmark::State& state) {
  const Graph& q = MicroQueries()[0].graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CamCode(q));
  }
}
BENCHMARK(BM_CamCode);

void BM_ConnectedSubsets(benchmark::State& state) {
  const Graph& q = MicroQueries()[0].graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConnectedEdgeSubsetsBySize(q));
  }
}
BENCHMARK(BM_ConnectedSubsets);

void BM_Mccs(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  const Graph& q = MicroQueries()[1].graph;
  size_t gid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMccs(q, bench.db.graph(gid)));
    gid = (gid + 1) % bench.db.size();
  }
}
BENCHMARK(BM_Mccs);

void BM_SpigSetConstruction(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  const VisualQuerySpec& spec = MicroQueries()[0];
  for (auto _ : state) {
    FormulatedQuery built = Formulate(spec, bench.indexes);
    benchmark::DoNotOptimize(built.spigs.TotalVertexCount());
  }
}
BENCHMARK(BM_SpigSetConstruction);

// threads=1 vs 4 comparison for the parallel per-level SPIG build.
void BM_SpigSetConstructionParallel(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  const VisualQuerySpec& spec = MicroQueries()[0];
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FormulatedQuery built = Formulate(spec, bench.indexes, &pool);
    benchmark::DoNotOptimize(built.spigs.TotalVertexCount());
  }
}
BENCHMARK(BM_SpigSetConstructionParallel)->Arg(1)->Arg(4);

void BM_ExactCandidates(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  FormulatedQuery built = Formulate(MicroQueries()[0], bench.indexes);
  const SpigVertex* target = built.spigs.FindVertex(built.query.FullMask());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSubCandidates(*target, bench.indexes));
  }
}
BENCHMARK(BM_ExactCandidates);

// Cold path: every per-vertex candidate set recomputed from the indexes.
void BM_SimilarCandidates(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  FormulatedQuery built = Formulate(MicroQueries()[1], bench.indexes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimilarSubCandidates(built.spigs, built.query.EdgeCount(), 3,
                             bench.indexes, /*use_cache=*/false));
  }
}
BENCHMARK(BM_SimilarCandidates);

// Warm path: per-vertex sets answered from the SpigVertex memo — what a
// steady-state formulation step pays for its persisted vertices.
void BM_SimilarCandidatesWarm(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  FormulatedQuery built = Formulate(MicroQueries()[1], bench.indexes);
  SimilarSubCandidates(built.spigs, built.query.EdgeCount(), 3,
                       bench.indexes);  // populate the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarSubCandidates(
        built.spigs, built.query.EdgeCount(), 3, bench.indexes));
  }
}
BENCHMARK(BM_SimilarCandidatesWarm);

void BM_IdSetIntersect(benchmark::State& state) {
  Rng rng(1);
  std::vector<GraphId> a_ids, b_ids;
  for (int i = 0; i < 10000; ++i) {
    a_ids.push_back(static_cast<GraphId>(rng.Below(40000)));
    b_ids.push_back(static_cast<GraphId>(rng.Below(40000)));
  }
  IdSet a(std::move(a_ids)), b(std::move(b_ids));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b));
  }
}
BENCHMARK(BM_IdSetIntersect);

// Lopsided sides (ratio 1:400) take the galloping path.
void BM_IdSetIntersectGallop(benchmark::State& state) {
  Rng rng(2);
  std::vector<GraphId> small_ids, large_ids;
  for (int i = 0; i < 100; ++i) {
    small_ids.push_back(static_cast<GraphId>(rng.Below(100000)));
  }
  for (int i = 0; i < 40000; ++i) {
    large_ids.push_back(static_cast<GraphId>(rng.Below(100000)));
  }
  IdSet small(std::move(small_ids)), large(std::move(large_ids));
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.Intersect(large));
  }
}
BENCHMARK(BM_IdSetIntersectGallop);

// k-way smallest-first intersection with early exit — the NIF Φ/Υ shape.
void BM_IdSetIntersectMany(benchmark::State& state) {
  Rng rng(3);
  std::vector<IdSet> sets;
  for (int s = 0; s < 6; ++s) {
    std::vector<GraphId> ids;
    size_t n = 500 << s;  // 500 .. 16000, skewed like real FSG sets
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<GraphId>(rng.Below(40000)));
    }
    sets.emplace_back(std::move(ids));
  }
  std::vector<const IdSet*> ptrs;
  for (const IdSet& s : sets) ptrs.push_back(&s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IdSet::IntersectMany(ptrs));
  }
}
BENCHMARK(BM_IdSetIntersectMany);

// SimVerify's containment check at the kernel level, one similarity
// query against every data graph in turn: VF2 alone, then VF2 behind the
// edge-label signature test (data-graph signatures come precomputed with
// the database, the pattern's is taken once, as a RUN does).
void BM_Vf2Alone(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  const Graph& pattern = MicroQueries()[1].graph;
  size_t gid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSubgraphIsomorphic(
        pattern, bench.db.graph(static_cast<GraphId>(gid)), Deadline()));
    gid = (gid + 1) % bench.db.size();
  }
}
BENCHMARK(BM_Vf2Alone);

void BM_SignatureVf2(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  const Graph& pattern = MicroQueries()[1].graph;
  const EdgeSignature pattern_sig(pattern);
  size_t gid = 0;
  for (auto _ : state) {
    const auto id = static_cast<GraphId>(gid);
    benchmark::DoNotOptimize(Contains(pattern, pattern_sig, bench.db.graph(id),
                                      bench.db.signature(id), Deadline()));
    gid = (gid + 1) % bench.db.size();
  }
}
BENCHMARK(BM_SignatureVf2);

void BM_IncrementalAppend(benchmark::State& state) {
  const Workbench& base = SmallBench();
  AidsGeneratorConfig gen;
  gen.graph_count = 1;
  gen.seed = 999;
  Graph extra = GenerateAidsLikeDatabase(gen).graph(0);
  for (auto _ : state) {
    state.PauseTiming();
    GraphDatabase db = base.db;           // fresh copies each round
    ActionAwareIndexes indexes = base.indexes;
    state.ResumeTiming();
    Result<MaintenanceReport> report =
        AppendGraphs(&db, {extra}, &indexes, 0.1);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_IncrementalAppend);

void BM_DfStoreColdLookup(benchmark::State& state) {
  const Workbench& bench = SmallBench();
  static const std::string path = "/tmp/prague_bench_micro.dfs";
  Result<DfStore> store = DfStore::Create(bench.indexes.a2f, path);
  if (!store.ok()) {
    state.SkipWithError("store create failed");
    return;
  }
  std::vector<A2fId> df_ids;
  for (A2fId id = 0; id < bench.indexes.a2f.VertexCount(); ++id) {
    if (!bench.indexes.a2f.vertex(id).in_mf) df_ids.push_back(id);
  }
  if (df_ids.empty()) {
    state.SkipWithError("no DF vertices at this scale");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    store->DropCache();  // force a disk read
    benchmark::DoNotOptimize(store->FsgIds(df_ids[i]));
    i = (i + 1) % df_ids.size();
  }
}
BENCHMARK(BM_DfStoreColdLookup);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  ThreadPool pool(4);
  std::vector<double> data(100000, 1.0);
  for (auto _ : state) {
    pool.ParallelFor(data.size(), 1024, [&](size_t begin, size_t end) {
      double acc = 0;
      for (size_t i = begin; i < end; ++i) acc += data[i];
      benchmark::DoNotOptimize(acc);
    });
  }
}
BENCHMARK(BM_ThreadPoolParallelFor);

void BM_MineTinyDatabase(benchmark::State& state) {
  AidsGeneratorConfig gen;
  gen.graph_count = 100;
  GraphDatabase db = GenerateAidsLikeDatabase(gen);
  MiningConfig mining;
  mining.min_support_ratio = 0.1;
  mining.max_fragment_edges = 6;
  for (auto _ : state) {
    Result<MiningResult> mined = MineFragments(db, mining);
    benchmark::DoNotOptimize(mined.ok());
  }
}
BENCHMARK(BM_MineTinyDatabase);

}  // namespace

BENCHMARK_MAIN();
