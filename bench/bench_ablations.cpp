// Ablation benchmarks for PRAGUE's design choices (DESIGN.md §4):
//
//  A. delId compression — stored index bytes with vs without the
//     delId(f) = fsgIds(f) \ ∪ children trick (Section III).
//  B. SPIG Fragment-List inheritance — per-query SPIG-set construction
//     cost with inheritance (Algorithm 2) vs decomposing every NIF and
//     probing the indexes directly (what a SPIG-less design would do).
//  C. Verification-free split — similarity result generation with Rfree
//     honored vs forcing every candidate through SimVerify (Algorithm 4's
//     reason to exist).
//  D. SimVerify's containment kernel — VF2 alone vs VF2 behind the
//     edge-label signature test (Section VI-C's replaceable seam), over
//     the (level fragment, Rver candidate) pairs a similarity run checks.

#include <cstdio>

#include "bench_common.h"
#include "core/candidates.h"
#include "core/results.h"
#include "graph/edge_signature.h"
#include "graph/vf2.h"
#include "util/bytes.h"
#include "util/stopwatch.h"

using namespace prague;
using namespace prague::bench;

namespace {

// Ablation B: rebuild every NIF Fragment List by direct enumeration +
// index probing (no inheritance), timing the whole pass.
double DirectProbeSeconds(const VisualQuerySpec& spec,
                          const ActionAwareIndexes& indexes) {
  Stopwatch timer;
  const Graph& q = spec.graph;
  auto by_size = ConnectedEdgeSubsetsBySize(q);
  for (size_t k = 1; k <= q.EdgeCount(); ++k) {
    for (EdgeMask mask : by_size[k]) {
      Graph sub = ExtractEdgeSubgraph(q, mask).graph;
      CanonicalCode code = GetCanonicalCode(sub);
      if (indexes.a2f.Lookup(code) || indexes.a2i.Lookup(code)) continue;
      // NIF: decompose into every subgraph and probe both indexes — the
      // work inheritance avoids.
      auto sub_by_size = ConnectedEdgeSubsetsBySize(sub);
      for (size_t j = 1; j < k; ++j) {
        for (EdgeMask m2 : sub_by_size[j]) {
          Graph sub2 = ExtractEdgeSubgraph(sub, m2).graph;
          CanonicalCode code2 = GetCanonicalCode(sub2);
          (void)indexes.a2f.Lookup(code2);
          (void)indexes.a2i.Lookup(code2);
        }
      }
    }
  }
  return timer.ElapsedSeconds();
}

}  // namespace

int main() {
  Banner("Ablations: delId compression, SPIG inheritance, Rfree split",
         "AIDS-like dataset");
  Workbench bench = BuildAidsWorkbench(AidsGraphCount());
  std::vector<VisualQuerySpec> queries = AidsQueries(bench);

  // --- A: delId compression. ----------------------------------------
  std::printf("A. delId compression (A2F storage bytes)\n");
  {
    const A2FIndex& a2f = bench.indexes.a2f;
    TablePrinter table({"variant", "bytes", "MB"});
    table.AddRow({"delId-compressed", std::to_string(a2f.StorageBytes()),
                  Fmt(ToMegabytes(a2f.StorageBytes()))});
    table.AddRow({"full fsgIds", std::to_string(a2f.UncompressedBytes()),
                  Fmt(ToMegabytes(a2f.UncompressedBytes()))});
    table.Print();
    std::printf("saving: %.1f%%\n\n",
                100.0 * (1.0 - static_cast<double>(a2f.StorageBytes()) /
                                   static_cast<double>(
                                       a2f.UncompressedBytes())));
  }

  // --- B: inheritance vs direct probing. ------------------------------
  std::printf("B. SPIG construction: inheritance vs direct index probing\n");
  {
    TablePrinter table(
        {"query", "inheritance (ms)", "direct probing (ms)", "speedup"});
    for (const VisualQuerySpec& spec : queries) {
      Stopwatch timer;
      FormulatedQuery built = Formulate(spec, bench.indexes);
      double inherit_s = timer.ElapsedSeconds();
      double probe_s = DirectProbeSeconds(spec, bench.indexes);
      table.AddRow({spec.name, FmtMs(inherit_s), FmtMs(probe_s),
                    Fmt(probe_s / inherit_s, 1) + "x"});
    }
    table.Print();
    std::printf("\n");
  }

  // --- C: verification-free split. -------------------------------------
  std::printf("C. similarity generation: Rfree honored vs all-verified\n");
  {
    TablePrinter table({"query", "with Rfree (ms)", "all verified (ms)",
                        "vf2 calls saved"});
    int sigma = 3;
    for (const VisualQuerySpec& spec : queries) {
      FormulatedQuery built = Formulate(spec, bench.indexes);
      SimilarCandidates cands = SimilarSubCandidates(
          built.spigs, built.query.EdgeCount(), sigma, bench.indexes);
      // Variant: dump every Rfree id into Rver.
      SimilarCandidates all_ver = cands;
      for (auto& [level, ids] : all_ver.free) {
        all_ver.ver[level].UnionWith(ids);
        ids.Clear();
      }
      SimilarGenStats stats_free, stats_ver;
      Stopwatch t1;
      (void)SimilarResultsGen(spec.graph, built.spigs, cands, sigma,
                              bench.db, nullptr, &stats_free);
      double with_free = t1.ElapsedSeconds();
      Stopwatch t2;
      (void)SimilarResultsGen(spec.graph, built.spigs, all_ver, sigma,
                              bench.db, nullptr, &stats_ver);
      double all_verified = t2.ElapsedSeconds();
      table.AddRow({spec.name, FmtMs(with_free), FmtMs(all_verified),
                    std::to_string(stats_ver.vf2_calls -
                                   stats_free.vf2_calls)});
    }
    table.Print();
    std::printf("\n");
  }

  // --- D: SimVerify kernel. ---------------------------------------------
  std::printf("D. SimVerify kernel: VF2 alone vs signature + VF2\n");
  {
    TablePrinter table({"query", "pairs", "vf2 alone (ms)",
                        "signature+vf2 (ms)", "vf2 calls", "matches"});
    int sigma = 3;
    for (const VisualQuerySpec& spec : queries) {
      FormulatedQuery built = Formulate(spec, bench.indexes);
      SimilarCandidates cands = SimilarSubCandidates(
          built.spigs, built.query.EdgeCount(), sigma, bench.indexes);
      // Every (level-i fragment of q, level-i Rver candidate) pair — the
      // checks SimVerify may run — each decided exhaustively both ways.
      auto by_size = ConnectedEdgeSubsetsBySize(spec.graph);
      std::vector<Graph> fragments;
      std::vector<std::pair<size_t, GraphId>> pairs;  // (fragment, graph)
      for (const auto& [level, ids] : cands.ver) {
        for (EdgeMask mask : by_size[level]) {
          fragments.push_back(ExtractEdgeSubgraph(spec.graph, mask).graph);
          for (GraphId gid : ids) pairs.emplace_back(fragments.size() - 1, gid);
        }
      }
      size_t plain_hits = 0;
      Stopwatch t1;
      for (const auto& [f, gid] : pairs) {
        plain_hits += IsSubgraphIsomorphic(fragments[f], bench.db.graph(gid));
      }
      double plain_s = t1.ElapsedSeconds();
      std::vector<EdgeSignature> sigs(fragments.begin(), fragments.end());
      ContainmentCounters counters;
      size_t sig_hits = 0;
      Stopwatch t2;
      for (const auto& [f, gid] : pairs) {
        sig_hits += Contains(fragments[f], sigs[f], bench.db.graph(gid),
                             bench.db.signature(gid), Deadline(), nullptr,
                             &counters);
      }
      double sig_s = t2.ElapsedSeconds();
      if (sig_hits != plain_hits) {
        std::fprintf(stderr, "signature test changed a verdict on %s\n",
                     spec.name.c_str());
        return 1;
      }
      table.AddRow({spec.name, std::to_string(pairs.size()), FmtMs(plain_s),
                    FmtMs(sig_s), std::to_string(counters.vf2_calls),
                    std::to_string(sig_hits)});
    }
    table.Print();
  }
  return 0;
}
