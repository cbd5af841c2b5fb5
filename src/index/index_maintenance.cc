#include "index/index_maintenance.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/code_memo.h"
#include "graph/edge_signature.h"
#include "graph/subgraph_ops.h"
#include "graph/vf2.h"

namespace prague {

namespace {

// A2F vertex ids ordered by fragment size ascending, so DAG pruning can
// rely on parents being processed first.
std::vector<A2fId> SizeAscendingOrder(const A2FIndex& a2f) {
  std::vector<A2fId> order(a2f.VertexCount());
  for (A2fId i = 0; i < a2f.VertexCount(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&a2f](A2fId a, A2fId b) {
    return a2f.vertex(a).size() < a2f.vertex(b).size();
  });
  return order;
}

// For each A2I entry, the A2F ids of its one-edge-smaller subfragments
// (all frequent by the DIF definition, hence indexed — unless mining was
// size-capped, in which case the list may be partial; missing parents
// simply weaken pruning). Subgraph codes go through the global
// canonical-code memo: repeated maintenance batches re-derive the same
// parent lists.
std::vector<std::vector<A2fId>> DifParents(const ActionAwareIndexes& idx) {
  CanonicalCodeMemo& memo = CanonicalCodeMemo::Global();
  std::vector<std::vector<A2fId>> parents(idx.a2i.EntryCount());
  for (A2iId d = 0; d < idx.a2i.EntryCount(); ++d) {
    const Graph& g = idx.a2i.entry(d).fragment;
    if (g.EdgeCount() < 2) continue;
    auto by_size = ConnectedEdgeSubsetsBySize(g);
    parents[d].reserve(by_size[g.EdgeCount() - 1].size());
    for (EdgeMask mask : by_size[g.EdgeCount() - 1]) {
      Graph sub = ExtractEdgeSubgraph(g, mask).graph;
      if (std::optional<A2fId> fid = idx.a2f.Lookup(memo.Get(sub))) {
        parents[d].push_back(*fid);
      }
    }
  }
  return parents;
}

// ---- σ-crossing reclassification (MaintenanceOptions::reclassify) ----

// One-edge extensions of `fragment` that occur in the graphs of `fsg`,
// keyed by canonical code, each with the exact set of graphs it occurs in.
// Every embedding of fragment is enumerated (VF2), then extended by each
// adjacent data edge: either a back edge closing two mapped nodes or a
// forward edge to a fresh node. Because ext ⊇ fragment implies
// fsg(ext) ⊆ fsg(fragment), the observed graph set IS the exact FSG id
// set — no verification probes are needed.
struct Extension {
  Graph graph;
  IdSet fsg_ids;
};

std::map<CanonicalCode, Extension> EnumerateExtensions(
    const Graph& fragment, const IdSet& fsg, const GraphDatabase& db,
    size_t* embeddings_visited) {
  CanonicalCodeMemo& memo = CanonicalCodeMemo::Global();
  std::map<CanonicalCode, Extension> out;
  for (GraphId gid : fsg) {
    const Graph& target = db.graph(gid);
    Vf2Matcher matcher(fragment, target);
    matcher.ForEach([&](const NodeMapping& m) {
      ++*embeddings_visited;
      // mapped_to[t] = pattern node matched to target node t (or invalid).
      std::vector<NodeId> mapped_to(target.NodeCount(), kInvalidNode);
      for (NodeId u = 0; u < m.size(); ++u) mapped_to[m[u]] = u;
      for (NodeId u = 0; u < m.size(); ++u) {
        for (const Adjacency& adj : target.Neighbors(m[u])) {
          const Label edge_label = target.GetEdge(adj.edge).label;
          NodeId v = mapped_to[adj.neighbor];
          GraphBuilder b(fragment);
          if (v != kInvalidNode) {
            // Back edge between two mapped nodes; visit each pair once.
            if (v <= u || fragment.HasEdge(u, v)) continue;
            if (!b.AddEdge(u, v, edge_label).ok()) continue;
          } else {
            NodeId fresh = b.AddNode(target.NodeLabel(adj.neighbor));
            if (!b.AddEdge(u, fresh, edge_label).ok()) continue;
          }
          Graph ext = std::move(b).Build();
          // Key first: the two try_emplace arguments are unsequenced, so
          // memo.Get(ext) must not race the move that consumes ext.
          CanonicalCode code = memo.Get(ext);
          auto [it, inserted] = out.try_emplace(
              std::move(code), Extension{std::move(ext), {}});
          it->second.fsg_ids.Insert(gid);
        }
      }
      return true;  // exhaustive enumeration
    });
  }
  return out;
}

// True iff `g` satisfies the DIF rule against `frequent_codes`: |g| = 1,
// or every maximal connected (k−1)-edge subgraph is frequent.
bool IsDiscriminative(
    const Graph& g,
    const std::unordered_set<CanonicalCode>& frequent_codes) {
  if (g.EdgeCount() <= 1) return true;
  CanonicalCodeMemo& memo = CanonicalCodeMemo::Global();
  auto by_size = ConnectedEdgeSubsetsBySize(g);
  for (EdgeMask mask : by_size[g.EdgeCount() - 1]) {
    Graph sub = ExtractEdgeSubgraph(g, mask).graph;
    if (!frequent_codes.count(memo.Get(sub))) return false;
  }
  return true;
}

// Repairs a σ-crossing in place: demotes fallen frequent fragments,
// promotes risen DIFs, grows the promoted frontier to discover newly
// frequent fragments (localized re-mining), folds in fragments the
// appended graphs introduced that the index has never seen, re-evaluates
// the DIF rule over the final frequent set, and rebuilds both indexes.
//
// \p first_appended is the id of the first graph this batch added; the
// novelty scan is restricted to [first_appended, db.size()).
void ReclassifyIndexes(const GraphDatabase& db, ActionAwareIndexes* indexes,
                       const MaintenanceOptions& options,
                       GraphId first_appended, MaintenanceReport* report) {
  const size_t sigma = report->new_min_support;
  const A2FIndex& a2f = indexes->a2f;
  const A2IIndex& a2i = indexes->a2i;
  CanonicalCodeMemo& memo = CanonicalCodeMemo::Global();

  // Fragments the appended graphs introduce that the index has never seen.
  // An offline re-mine would surface them (as new frequent fragments or
  // DIFs), so for offline parity the delta path must too. Their observed
  // id sets are exact: a single-edge fragment occurring in any old graph
  // would already be indexed (frequent or DIF — |g| = 1 is always
  // discriminative), and a multi-edge fragment occurring in old graphs
  // either was a DIF before or has a promoted parent, in which case the
  // full-FSG frontier pass below finds it first and wins the `seen` race.
  std::map<CanonicalCode, Extension> novel;
  for (GraphId gid = first_appended; gid < db.size(); ++gid) {
    const Graph& g = db.graph(gid);
    for (const Edge& e : g.edges()) {
      GraphBuilder b;
      b.AddNode(g.NodeLabel(e.u));
      b.AddNode(g.NodeLabel(e.v));
      if (!b.AddEdge(0, 1, e.label).ok()) continue;
      Graph frag = std::move(b).Build();
      CanonicalCode code = memo.Get(frag);
      if (a2f.Lookup(code) || a2i.Lookup(code)) continue;
      auto [it, inserted] = novel.try_emplace(code, Extension{std::move(frag), {}});
      it->second.fsg_ids.Insert(gid);
    }
  }
  // One-edge extensions of still-frequent fragments, enumerated only
  // inside the appended graphs they gained (extensions occurring in old
  // graphs are either already indexed or reached via a promoted parent).
  for (A2fId id = 0; id < a2f.VertexCount(); ++id) {
    const A2fVertex& v = a2f.vertex(id);
    if (v.fsg_ids.size() < sigma) continue;  // demoted: children moot
    if (v.fragment.EdgeCount() >= options.max_fragment_edges) continue;
    IdSet gained;
    for (GraphId gid : v.fsg_ids) {
      if (gid >= first_appended) gained.Insert(gid);
    }
    if (gained.size() == 0) continue;
    size_t embeddings = 0;
    std::map<CanonicalCode, Extension> extensions =
        EnumerateExtensions(v.fragment, gained, db, &embeddings);
    report->probes += embeddings;
    for (auto& [code, ext] : extensions) {
      if (a2f.Lookup(code) || a2i.Lookup(code)) continue;
      auto [it, inserted] =
          novel.try_emplace(code, Extension{std::move(ext.graph), {}});
      for (GraphId gid : ext.fsg_ids) it->second.fsg_ids.Insert(gid);
    }
  }

  const bool crossings = report->frequent_below_threshold > 0 ||
                         report->difs_above_threshold > 0;
  if (!crossings && novel.empty()) return;  // nothing moved, nothing new

  // Split the current population by the new threshold. Demotions cannot
  // cascade: sup(child) ≤ sup(parent), so every transitively affected
  // fragment is caught by this one sweep.
  std::vector<MinedFragment> frequent;
  std::vector<MinedFragment> dif_candidates;
  std::unordered_set<CanonicalCode> seen;
  frequent.reserve(a2f.VertexCount());
  for (A2fId id = 0; id < a2f.VertexCount(); ++id) {
    const A2fVertex& v = a2f.vertex(id);
    seen.insert(v.code);
    MinedFragment f{v.fragment, v.code, v.fsg_ids, {}};
    if (v.fsg_ids.size() >= sigma) {
      frequent.push_back(std::move(f));
    } else {
      ++report->demoted_fragments;
      dif_candidates.push_back(std::move(f));
    }
  }

  // Promotions seed the localized growth frontier.
  std::deque<size_t> frontier;  // indexes into `frequent`
  for (A2iId d = 0; d < a2i.EntryCount(); ++d) {
    const A2iEntry& e = a2i.entry(d);
    seen.insert(e.code);
    MinedFragment f{e.fragment, e.code, e.fsg_ids, {}};
    if (e.fsg_ids.size() >= sigma) {
      ++report->promoted_fragments;
      frontier.push_back(frequent.size());
      frequent.push_back(std::move(f));
    } else {
      dif_candidates.push_back(std::move(f));
    }
  }

  // Grow the frontier one edge at a time inside the parents' FSG graphs.
  // Frequent extensions join the frontier; infrequent ones become DIF
  // candidates (their id sets are exact — see EnumerateExtensions).
  auto drain_frontier = [&] {
    while (!frontier.empty()) {
      const size_t fi = frontier.front();
      frontier.pop_front();
      if (frequent[fi].size() >= options.max_fragment_edges) continue;
      // Copy what the loop below needs: growing `frequent` may reallocate.
      const Graph parent_graph = frequent[fi].graph;
      const IdSet parent_fsg = frequent[fi].fsg_ids;
      size_t embeddings = 0;
      std::map<CanonicalCode, Extension> extensions =
          EnumerateExtensions(parent_graph, parent_fsg, db, &embeddings);
      report->probes += embeddings;
      for (auto& [code, ext] : extensions) {
        if (!seen.insert(code).second) continue;
        MinedFragment f{std::move(ext.graph), code, std::move(ext.fsg_ids),
                        {}};
        if (f.fsg_ids.size() >= sigma) {
          ++report->discovered_fragments;
          frontier.push_back(frequent.size());
          frequent.push_back(std::move(f));
        } else {
          dif_candidates.push_back(std::move(f));
        }
      }
    }
  };
  drain_frontier();

  // Fold in the novel fragments the appended graphs introduced. The
  // frontier ran first, so a fragment reachable from a promoted parent is
  // already in `seen` with its full FSG set; what remains occurs only in
  // appended graphs, making the observed set exact. Newly frequent ones
  // join the frontier and grow like any other discovery.
  for (auto& [code, ext] : novel) {
    if (!seen.insert(code).second) continue;
    MinedFragment f{std::move(ext.graph), code, std::move(ext.fsg_ids), {}};
    if (f.fsg_ids.size() >= sigma) {
      ++report->discovered_fragments;
      frontier.push_back(frequent.size());
      frequent.push_back(std::move(f));
    } else {
      dif_candidates.push_back(std::move(f));
    }
  }
  drain_frontier();

  // Final DIF set: every candidate that still satisfies the DIF rule
  // against the final frequent population, in the miner's (size, code)
  // order so a reclassified index is ordered like a freshly mined one.
  std::unordered_set<CanonicalCode> frequent_codes;
  for (const MinedFragment& f : frequent) frequent_codes.insert(f.code);
  std::vector<MinedFragment> difs;
  for (MinedFragment& f : dif_candidates) {
    if (IsDiscriminative(f.graph, frequent_codes)) {
      difs.push_back(std::move(f));
    }
  }
  std::sort(difs.begin(), difs.end(),
            [](const MinedFragment& x, const MinedFragment& y) {
              return x.size() != y.size() ? x.size() < y.size()
                                          : x.code < y.code;
            });

  MiningResult result;
  result.frequent = std::move(frequent);
  result.difs = std::move(difs);
  result.min_support = sigma;
  result.stats = indexes->mining_stats;
  *indexes = BuildActionAwareIndexes(result, A2fConfig{a2f.beta()});
  report->reclassified = true;
}

}  // namespace

Result<MaintenanceReport> AppendGraphs(GraphDatabase* db,
                                       std::vector<Graph> graphs,
                                       ActionAwareIndexes* indexes,
                                       double alpha) {
  MaintenanceOptions options;
  options.alpha = alpha;
  return AppendGraphs(db, std::move(graphs), indexes, options);
}

Result<MaintenanceReport> AppendGraphs(GraphDatabase* db,
                                       std::vector<Graph> graphs,
                                       ActionAwareIndexes* indexes,
                                       const MaintenanceOptions& options) {
  const double alpha = options.alpha;
  if (alpha <= 0 || alpha >= 1) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (graphs.empty()) {
    return Status::InvalidArgument("no graphs to append");
  }
  for (const Graph& g : graphs) {
    if (g.EdgeCount() == 0 || !g.IsConnected()) {
      return Status::InvalidArgument(
          "appended graphs must be connected and non-empty");
    }
  }

  MaintenanceReport report;
  report.graphs_added = graphs.size();
  std::vector<A2fId> order = SizeAscendingOrder(indexes->a2f);
  std::vector<std::vector<A2fId>> dif_parents = DifParents(*indexes);
  // Fragment signatures, taken once for the whole batch; each probe runs
  // VF2 only when the fragment's signature fits in the appended graph's.
  std::vector<EdgeSignature> a2f_sigs;
  a2f_sigs.reserve(indexes->a2f.VertexCount());
  for (A2fId id = 0; id < indexes->a2f.VertexCount(); ++id) {
    a2f_sigs.emplace_back(indexes->a2f.vertex(id).fragment);
  }
  std::vector<EdgeSignature> a2i_sigs;
  a2i_sigs.reserve(indexes->a2i.EntryCount());
  for (A2iId d = 0; d < indexes->a2i.EntryCount(); ++d) {
    a2i_sigs.emplace_back(indexes->a2i.entry(d).fragment);
  }

  // contains[f] for the graph currently being processed.
  std::vector<char> contains(indexes->a2f.VertexCount(), 0);

  const GraphId first_appended = static_cast<GraphId>(db->size());
  for (Graph& graph : graphs) {
    GraphId gid = db->Add(std::move(graph));
    const Graph& g = db->graph(gid);
    const EdgeSignature& g_sig = db->signature(gid);
    std::fill(contains.begin(), contains.end(), 0);

    // A2F sweep, size ascending with anti-monotone pruning: skip the VF2
    // probe whenever some recorded parent fragment is already absent.
    for (A2fId id : order) {
      const A2fVertex& v = indexes->a2f.vertex(id);
      bool possible = true;
      for (A2fId p : v.parents) {
        if (!contains[p]) {
          possible = false;
          break;
        }
      }
      if (!possible) {
        ++report.pruned_probes;
        continue;
      }
      ++report.probes;
      if (Contains(v.fragment, a2f_sigs[id], g, g_sig, Deadline())) {
        contains[id] = 1;
        indexes->a2f.AddFsgId(id, gid);
      }
    }
    // A2I sweep with the precomputed frequent-parent lists.
    for (A2iId d = 0; d < indexes->a2i.EntryCount(); ++d) {
      bool possible = true;
      for (A2fId p : dif_parents[d]) {
        if (!contains[p]) {
          possible = false;
          break;
        }
      }
      if (!possible) {
        ++report.pruned_probes;
        continue;
      }
      ++report.probes;
      if (Contains(indexes->a2i.entry(d).fragment, a2i_sigs[d], g, g_sig,
                   Deadline())) {
        indexes->a2i.AddFsgId(d, gid);
      }
    }
  }

  indexes->a2f.RecomputeDelIds();

  // Drift detection against the moved threshold.
  report.new_min_support = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(alpha * static_cast<double>(db->size()))));
  indexes->min_support = report.new_min_support;
  for (A2fId id = 0; id < indexes->a2f.VertexCount(); ++id) {
    if (indexes->a2f.FsgIds(id).size() < report.new_min_support) {
      ++report.frequent_below_threshold;
    }
  }
  for (A2iId d = 0; d < indexes->a2i.EntryCount(); ++d) {
    if (indexes->a2i.FsgIds(d).size() >= report.new_min_support) {
      ++report.difs_above_threshold;
    }
  }
  report.remine_recommended = report.frequent_below_threshold > 0 ||
                              report.difs_above_threshold > 0;

  if (options.reclassify) {
    // Always offered the chance: besides σ-crossings, appended graphs can
    // introduce fragments the index has never seen (new labels, new edge
    // shapes), which drift detection alone cannot notice. The pass
    // returns untouched when nothing moved and nothing new appeared.
    ReclassifyIndexes(*db, indexes, options, first_appended, &report);
    if (report.reclassified) report.remine_recommended = false;
  }
  return report;
}

Result<SnapshotAppendResult> AppendGraphs(const DatabaseSnapshot& base,
                                          std::vector<Graph> graphs,
                                          double alpha,
                                          const LabelDictionary* graph_labels) {
  MaintenanceOptions options;
  options.alpha = alpha;
  return AppendGraphs(base, std::move(graphs), options, graph_labels);
}

Result<SnapshotAppendResult> AppendGraphs(const DatabaseSnapshot& base,
                                          std::vector<Graph> graphs,
                                          const MaintenanceOptions& options,
                                          const LabelDictionary* graph_labels) {
  // Both copies are cheap: the database shares all Graph storage through
  // shared_ptr and every index id-set is copy-on-write.
  GraphDatabase db = base.db();
  ActionAwareIndexes indexes = base.indexes();

  if (graph_labels != nullptr) {
    for (Graph& g : graphs) {
      GraphBuilder b;
      for (NodeId n = 0; n < g.NodeCount(); ++n) {
        Result<std::string> name = graph_labels->NameOf(g.NodeLabel(n));
        if (!name.ok()) return name.status();
        b.AddNode(db.mutable_labels()->Intern(name.value()));
      }
      for (const Edge& e : g.edges()) {
        Result<EdgeId> eid = b.AddEdge(e.u, e.v, e.label);
        if (!eid.ok()) return eid.status();
      }
      g = std::move(b).Build();
    }
  }

  Result<MaintenanceReport> report =
      AppendGraphs(&db, std::move(graphs), &indexes, options);
  if (!report.ok()) return report.status();

  SnapshotAppendResult out;
  out.report = report.value();
  out.report.from_version = base.version();
  out.report.to_version = base.version() + 1;
  out.snapshot = DatabaseSnapshot::Make(std::move(db), std::move(indexes),
                                        out.report.to_version);
  return out;
}

}  // namespace prague
