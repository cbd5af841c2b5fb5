#include "core/gblender.h"

#include <algorithm>
#include <utility>

#include "graph/canonical.h"
#include "graph/subgraph_ops.h"
#include "util/stopwatch.h"

namespace prague {

GBlenderSession::GBlenderSession(SnapshotPtr snapshot)
    : snap_(std::move(snapshot)) {}

NodeId GBlenderSession::AddNode(Label label) { return query_.AddNode(label); }

void GBlenderSession::StepUpdate(const Graph& fragment, IdSet* rq) const {
  const ActionAwareIndexes& indexes = snap_->indexes();
  CanonicalCode code = GetCanonicalCode(fragment);
  if (std::optional<A2fId> fid = indexes.a2f.Lookup(code)) {
    *rq = indexes.a2f.FsgIds(*fid);
    return;
  }
  if (std::optional<A2iId> did = indexes.a2i.Lookup(code)) {
    *rq = indexes.a2i.FsgIds(*did);
    return;
  }
  // Unindexed fragment: intersect the previous Rq with the FSG ids of
  // every indexed maximal subgraph (decomposition probing — GBLENDER has
  // no SPIGs to remember these from earlier steps).
  if (fragment.EdgeCount() < 2) {
    rq->Clear();  // unindexed single edge has zero support
    return;
  }
  std::vector<std::vector<EdgeMask>> by_size =
      ConnectedEdgeSubsetsBySize(fragment);
  for (EdgeMask mask : by_size[fragment.EdgeCount() - 1]) {
    ExtractedSubgraph sub = ExtractEdgeSubgraph(fragment, mask);
    CanonicalCode sub_code = GetCanonicalCode(sub.graph);
    if (std::optional<A2fId> fid = indexes.a2f.Lookup(sub_code)) {
      rq->IntersectWith(indexes.a2f.FsgIds(*fid));
    } else if (std::optional<A2iId> did = indexes.a2i.Lookup(sub_code)) {
      rq->IntersectWith(indexes.a2i.FsgIds(*did));
    }
    // Unindexed subgraphs constrain nothing.
  }
}

Result<GbrStepReport> GBlenderSession::AddEdge(NodeId u, NodeId v,
                                               Label edge_label) {
  Result<FormulationId> ell = query_.AddEdge(u, v, edge_label);
  if (!ell.ok()) return ell.status();
  GbrStepReport report;
  report.edge = *ell;
  Stopwatch timer;
  if (!started_) {
    rq_ = snap_->db().AllIds();
    started_ = true;
  }
  StepUpdate(query_.CurrentGraph(), &rq_);
  report.step_seconds = timer.ElapsedSeconds();
  report.candidates = rq_.size();
  return report;
}

size_t GBlenderSession::Replay() {
  rq_ = snap_->db().AllIds();
  std::vector<FormulationId> remaining = query_.AliveEdgeIds();
  if (remaining.empty()) {
    rq_.Clear();
    started_ = false;
    return 0;
  }
  const Graph& q = query_.CurrentGraph();
  // Re-run the formulation against connectivity: start from the earliest
  // edge, repeatedly append the lowest-id edge adjacent to the prefix.
  FormulationMask prefix = FormulationBit(remaining.front());
  std::vector<FormulationId> pending(remaining.begin() + 1, remaining.end());
  size_t steps = 0;
  for (;;) {
    EdgeMask gmask = query_.ToGraphMask(prefix);
    ExtractedSubgraph sub = ExtractEdgeSubgraph(q, gmask);
    StepUpdate(sub.graph, &rq_);
    ++steps;
    if (pending.empty()) break;
    // Pick the lowest-id pending edge keeping the prefix connected.
    bool advanced = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      FormulationMask cand = prefix | FormulationBit(pending[i]);
      if (IsEdgeSubsetConnected(q, query_.ToGraphMask(cand))) {
        prefix = cand;
        pending.erase(pending.begin() + i);
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // cannot happen for a connected query
  }
  return steps;
}

Result<GbrStepReport> GBlenderSession::DeleteEdge(FormulationId ell) {
  PRAGUE_RETURN_NOT_OK(query_.DeleteEdge(ell));
  GbrStepReport report;
  report.edge = ell;
  Stopwatch timer;
  report.replayed_steps = Replay();
  report.replay_seconds = timer.ElapsedSeconds();
  report.step_seconds = report.replay_seconds;
  report.candidates = rq_.size();
  return report;
}

Result<QueryResults> GBlenderSession::Run(RunStats* stats,
                                          const Deadline& deadline) {
  if (query_.Empty()) {
    return Status::FailedPrecondition("no query fragment to run");
  }
  Stopwatch timer;
  QueryResults results;
  VerificationOutcome outcome;
  // What PragueSession's RUN path does with one shard.
  results.exact = ExactVerification(query_.CurrentGraph(), rq_, snap_->db(),
                                    deadline, &outcome);
  results.truncated = outcome.truncated;
  if (stats != nullptr) {
    stats->verified = results.exact.size();
    stats->rejected = outcome.checked - results.exact.size();
    stats->nodes_expanded = outcome.nodes_expanded;
    stats->verification_seconds = timer.ElapsedSeconds();
    stats->truncated = outcome.truncated;
    if (outcome.truncated) {
      stats->deadline_phase = RunPhase::kExactVerification;
    }
    stats->srt_seconds = timer.ElapsedSeconds();
  }
  return results;
}

}  // namespace prague
