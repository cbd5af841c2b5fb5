#include "core/prague_session.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "core/shard_exec.h"
#include "util/stopwatch.h"

namespace prague {

namespace {

// Histograms store microseconds; round half-up from the double phase time.
uint64_t ToMicros(double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<uint64_t>(seconds * 1e6 + 0.5);
}

}  // namespace

PragueSession::PragueSession(SnapshotPtr snapshot, const PragueConfig& config)
    : snap_(std::move(snapshot)), config_(config) {}

NodeId PragueSession::AddNode(Label label) {
  NodeId id = query_.AddNode(label);
  SessionAction a;
  a.kind = SessionAction::Kind::kAddNode;
  a.label = label;
  log_.push_back(a);
  return id;
}

Result<NodeId> PragueSession::AddNodeByName(const std::string& label_name) {
  Result<Label> label = snap_->labels().Lookup(label_name);
  if (!label.ok()) return label.status();
  return AddNode(*label);
}

const SpigVertex* PragueSession::TargetVertex() const {
  if (query_.Empty()) return nullptr;
  return spigs_.FindVertex(query_.FullMask());
}

IdSet PragueSession::VertexCandidates(const SpigVertex& v) const {
  return config_.candidate_memo ? CachedSubCandidates(v, snap_->indexes())
                                : ExactSubCandidates(v, snap_->indexes());
}

void PragueSession::RecordSpigBuild(double seconds) {
  formulation_spig_seconds_ += seconds;
  obs::EngineMetrics& em = obs::EngineMetrics::Get();
  em.spig_steps_total->Increment();
  em.spig_build_us->Record(ToMicros(seconds));
}

void PragueSession::RefreshCandidates(StepReport* report) {
  Stopwatch timer;
  const SpigVertex* target = TargetVertex();
  rq_ = target != nullptr ? VertexCandidates(*target) : IdSet();
  if (rq_.empty() && !sim_flag_ && config_.auto_similarity &&
      !query_.Empty()) {
    sim_flag_ = true;  // user answers the option dialogue with "continue"
  }
  if (sim_flag_) {
    similar_ = SimilarSubCandidates(spigs_, query_.EdgeCount(), config_.sigma,
                                    snap_->indexes(), config_.candidate_memo);
    report->free_candidates = similar_.AllFree().size();
    report->ver_candidates = similar_.AllVer().size();
  } else {
    similar_ = SimilarCandidates();
  }
  report->candidate_seconds = timer.ElapsedSeconds();
  formulation_candidate_seconds_ += report->candidate_seconds;
  obs::EngineMetrics::Get().candidate_refresh_us->Record(
      ToMicros(report->candidate_seconds));
  report->exact_candidates = rq_.size();
  report->similarity_mode = sim_flag_;
  if (target != nullptr && target->frag.IsFrequent()) {
    report->status = FragmentStatus::kFrequent;
  } else if (!rq_.empty()) {
    report->status = FragmentStatus::kInfrequent;
  } else {
    report->status = FragmentStatus::kNoExactMatch;
  }
}

Result<StepReport> PragueSession::AddEdge(NodeId u, NodeId v,
                                          Label edge_label) {
  // Kept so a deadline-aborted SPIG build can undo the drawn edge: the
  // session must stay exactly as it was before the failed action.
  VisualQuery backup = query_;
  Result<FormulationId> ell = query_.AddEdge(u, v, edge_label);
  if (!ell.ok()) return ell.status();
  StepReport report;
  report.edge = *ell;
  Stopwatch spig_timer;
  Result<const Spig*> spig = spigs_.AddForNewEdge(
      query_, *ell, snap_->indexes(), SpigPool(), StepDeadline());
  if (!spig.ok()) {
    if (spig.status().code() == Status::Code::kDeadlineExceeded) {
      obs::EngineMetrics::Get().step_deadline_total->Increment();
    }
    query_ = std::move(backup);
    return spig.status();
  }
  report.spig_seconds = spig_timer.ElapsedSeconds();
  RecordSpigBuild(report.spig_seconds);
  RefreshCandidates(&report);
  SessionAction a;
  a.kind = SessionAction::Kind::kAddEdge;
  a.u = u;
  a.v = v;
  a.edge_label = edge_label;
  log_.push_back(a);
  return report;
}

void PragueSession::MaybeExitSimilarity() {
  const SpigVertex* target = TargetVertex();
  if (sim_flag_ && target != nullptr &&
      !VertexCandidates(*target).empty()) {
    sim_flag_ = false;
  }
}

Result<StepReport> PragueSession::DeleteEdge(FormulationId ell) {
  PRAGUE_RETURN_NOT_OK(query_.DeleteEdge(ell));
  StepReport report;
  report.edge = ell;
  Stopwatch spig_timer;
  spigs_.RemoveForDeletedEdge(ell);
  report.spig_seconds = spig_timer.ElapsedSeconds();
  RecordSpigBuild(report.spig_seconds);
  // Algorithm 6 lines 15-18: fall back to exact mode when the reduced
  // query has exact matches again.
  MaybeExitSimilarity();
  RefreshCandidates(&report);
  SessionAction a;
  a.kind = SessionAction::Kind::kDeleteEdge;
  a.ell = ell;
  log_.push_back(a);
  return report;
}

Result<StepReport> PragueSession::DeleteEdges(
    const std::vector<FormulationId>& edges) {
  if (edges.empty()) {
    return Status::InvalidArgument("no edges to delete");
  }
  if (edges.size() == 1) return DeleteEdge(edges.front());
  // Dry-run on a copy: find an order that keeps the fragment connected at
  // every intermediate step (greedy: always delete a currently deletable
  // edge from the remaining set).
  VisualQuery scratch = query_;
  std::vector<FormulationId> order;
  std::vector<FormulationId> pending = edges;
  while (!pending.empty()) {
    bool advanced = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!scratch.CanDelete(pending[i])) continue;
      PRAGUE_RETURN_NOT_OK(scratch.DeleteEdge(pending[i]));
      order.push_back(pending[i]);
      pending.erase(pending.begin() + i);
      advanced = true;
      break;
    }
    if (!advanced) {
      return Status::FailedPrecondition(
          "no deletion order keeps the query fragment connected");
    }
  }
  // Apply for real. Individual steps cannot fail now.
  StepReport report;
  Stopwatch spig_timer;
  for (FormulationId ell : order) {
    PRAGUE_RETURN_NOT_OK(query_.DeleteEdge(ell));
    spigs_.RemoveForDeletedEdge(ell);
    report.edge = ell;
    SessionAction a;
    a.kind = SessionAction::Kind::kDeleteEdge;
    a.ell = ell;
    log_.push_back(a);
  }
  report.spig_seconds = spig_timer.ElapsedSeconds();
  RecordSpigBuild(report.spig_seconds);
  MaybeExitSimilarity();
  RefreshCandidates(&report);
  return report;
}

Result<StepReport> PragueSession::RelabelNode(NodeId node, Label new_label) {
  if (node >= query_.UserNodeCount()) {
    return Status::NotFound("node does not exist");
  }
  StepReport report;
  Stopwatch spig_timer;
  FormulationMask affected = query_.IncidentEdgeMask(node);
  PRAGUE_RETURN_NOT_OK(query_.RelabelNode(node, new_label));
  if (affected != 0) {
    PRAGUE_RETURN_NOT_OK(
        spigs_.RefreshForRelabel(query_, affected, snap_->indexes()));
  }
  report.spig_seconds = spig_timer.ElapsedSeconds();
  RecordSpigBuild(report.spig_seconds);
  MaybeExitSimilarity();
  RefreshCandidates(&report);
  SessionAction a;
  a.kind = SessionAction::Kind::kRelabelNode;
  a.node = node;
  a.label = new_label;
  log_.push_back(a);
  return report;
}

Result<std::vector<StepReport>> PragueSession::AddPattern(
    const Graph& pattern,
    const std::vector<std::pair<NodeId, NodeId>>& attach) {
  if (pattern.EdgeCount() == 0 || !pattern.IsConnected()) {
    return Status::InvalidArgument("pattern must be a connected graph");
  }
  if (!query_.Empty() && attach.empty()) {
    return Status::InvalidArgument(
        "pattern must attach to the existing fragment");
  }
  // Resolve/validate the pattern-node → session-node map.
  std::vector<NodeId> node_map(pattern.NodeCount(), kInvalidNode);
  for (const auto& [pattern_node, session_node] : attach) {
    if (pattern_node >= pattern.NodeCount() ||
        session_node >= query_.UserNodeCount()) {
      return Status::InvalidArgument("bad attach pair");
    }
    if (pattern.NodeLabel(pattern_node) !=
        query_.NodeLabel(session_node)) {
      return Status::InvalidArgument(
          "attach pair labels differ; relabel first");
    }
    node_map[pattern_node] = session_node;
  }
  // Edge order: attached nodes count as already connected to the canvas.
  std::vector<bool> touched(pattern.NodeCount(), false);
  for (const auto& [pattern_node, unused] : attach) {
    touched[pattern_node] = true;
  }
  bool canvas_empty = query_.Empty();
  std::vector<EdgeId> order;
  std::vector<bool> used(pattern.EdgeCount(), false);
  for (size_t step = 0; step < pattern.EdgeCount(); ++step) {
    EdgeId next = kInvalidEdge;
    for (EdgeId e = 0; e < pattern.EdgeCount(); ++e) {
      if (used[e]) continue;
      const Edge& edge = pattern.GetEdge(e);
      if (touched[edge.u] || touched[edge.v] ||
          (canvas_empty && order.empty())) {
        next = e;
        break;
      }
    }
    if (next == kInvalidEdge) {
      return Status::InvalidArgument(
          "pattern cannot be drawn connected from the attach points");
    }
    used[next] = true;
    touched[pattern.GetEdge(next).u] = true;
    touched[pattern.GetEdge(next).v] = true;
    order.push_back(next);
  }
  // Apply edge-at-a-time, exactly as hand drawing would.
  std::vector<StepReport> reports;
  for (EdgeId e : order) {
    const Edge& edge = pattern.GetEdge(e);
    for (NodeId endpoint : {edge.u, edge.v}) {
      if (node_map[endpoint] == kInvalidNode) {
        node_map[endpoint] = AddNode(pattern.NodeLabel(endpoint));
      }
    }
    Result<StepReport> report =
        AddEdge(node_map[edge.u], node_map[edge.v], edge.label);
    if (!report.ok()) return report.status();
    reports.push_back(*report);
  }
  return reports;
}

Result<StepReport> PragueSession::EnableSimilarity() {
  if (query_.Empty()) {
    return Status::FailedPrecondition("no query fragment yet");
  }
  sim_flag_ = true;
  StepReport report;
  report.edge = query_.LastFormulationId();
  RefreshCandidates(&report);
  SessionAction a;
  a.kind = SessionAction::Kind::kSimQuery;
  log_.push_back(a);
  return report;
}

ThreadPool* PragueSession::SpigPool() {
  if (config_.spig_threads <= 1) return nullptr;
  if (!spig_pool_) {
    spig_pool_ = std::make_unique<ThreadPool>(config_.spig_threads);
  }
  return spig_pool_.get();
}

Deadline PragueSession::RunDeadline() const {
  Deadline d = config_.run_deadline_ms > 0
                   ? Deadline::AfterMillis(config_.run_deadline_ms)
                   : Deadline();
  return d.WithToken(config_.cancellation);
}

Deadline PragueSession::StepDeadline() const {
  Deadline d = config_.step_deadline_ms > 0
                   ? Deadline::AfterMillis(config_.step_deadline_ms)
                   : Deadline();
  return d.WithToken(config_.cancellation);
}

Result<QueryResults> PragueSession::Run(RunStats* stats) {
  return Run(RunDeadline(), stats);
}

Result<QueryResults> PragueSession::Run(const Deadline& deadline,
                                        RunStats* stats) {
  if (query_.Empty()) {
    return Status::FailedPrecondition("no query fragment to run");
  }
  Stopwatch timer;
  obs::RunTrace trace;
  trace.session_tag = config_.session_tag;
  trace.snapshot_version = snap_->version();
  trace.run_ordinal = runs_completed_ + 1;
  trace.query_edges = query_.EdgeCount();
  trace.similarity = sim_flag_;
  // Formulation work happened before Run() (during GUI latency); surface
  // the cumulative totals so one trace covers the whole episode.
  trace.spans.push_back({"formulation-spig", formulation_spig_seconds_});
  trace.spans.push_back(
      {"formulation-candidates", formulation_candidate_seconds_});
  const Graph& q = query_.CurrentGraph();
  QueryResults results;
  RunStats local;
  // Shards are graph-id ranges of the pinned snapshot, fixed per run.
  const ShardPlan plan = ShardPlan::Make(snap_->db().size(), config_.shards,
                                         config_.shard_pool.get());
  auto mark_cut = [&](RunPhase phase) {
    results.truncated = true;
    local.truncated = true;
    if (local.deadline_phase == RunPhase::kNone) local.deadline_phase = phase;
  };
  // Algorithm 5 over `cands` (plus distance-0 matches from `exact_rq`).
  auto generate_similar = [&](const SimilarCandidates& cands,
                              const IdSet* exact_rq) {
    obs::TraceSpan sim_span(&trace, "similar-generation");
    bool gen_cut = false;
    Status shard_error;
    results.similar = ShardedSimilarRun(
        q, spigs_, cands, config_.sigma, snap_->db(), exact_rq,
        &local.similar, config_.top_k, deadline, plan, &gen_cut, &trace,
        &shard_error);
    if (!shard_error.ok()) return shard_error;
    local.similarity_seconds = sim_span.Stop();
    obs::EngineMetrics::Get().similar_generation_us->Record(
        ToMicros(local.similarity_seconds));
    if (gen_cut) mark_cut(RunPhase::kSimilarGeneration);
    return Status::OK();
  };
  if (!sim_flag_) {
    // Verification-free answers (the FG-Index [2] guarantee the indexes
    // inherit): when the whole query is an indexed frequent fragment or
    // DIF, Rq is its exact FSG id set — no subgraph-isomorphism test
    // needed.
    const SpigVertex* target = TargetVertex();
    if (target != nullptr &&
        (target->frag.IsFrequent() || target->frag.IsDif())) {
      results.exact.assign(rq_.begin(), rq_.end());
      local.verified = results.exact.size();
      local.rejected = 0;
    } else {
      obs::TraceSpan span(&trace, "exact-verification");
      VerificationOutcome outcome;
      Status shard_error;
      results.exact = ShardedExactVerification(q, rq_, snap_->db(), plan,
                                               deadline, &outcome, &trace,
                                               &shard_error);
      if (!shard_error.ok()) return shard_error;
      local.verification_seconds = span.Stop();
      obs::EngineMetrics::Get().exact_verification_us->Record(
          ToMicros(local.verification_seconds));
      local.verified = results.exact.size();
      local.rejected = outcome.checked - results.exact.size();
      local.nodes_expanded += outcome.nodes_expanded;
      if (outcome.truncated) mark_cut(RunPhase::kExactVerification);
    }
    if (results.exact.empty() && !results.truncated) {
      // Algorithm 1 lines 19-21: exact verification came up empty — fall
      // back to similarity search. Candidates are derived once, through
      // the memo, and each shard generates from its own range of them.
      results.similarity = true;
      obs::TraceSpan cand_span(&trace, "similar-candidates");
      bool cand_cut = false;
      SimilarCandidates cands = SimilarSubCandidates(
          spigs_, query_.EdgeCount(), config_.sigma, snap_->indexes(),
          config_.candidate_memo, deadline, &cand_cut);
      local.candidate_seconds = cand_span.Stop();
      obs::EngineMetrics::Get().similar_candidates_us->Record(
          ToMicros(local.candidate_seconds));
      if (cand_cut) mark_cut(RunPhase::kSimilarCandidates);
      PRAGUE_RETURN_NOT_OK(generate_similar(cands, nullptr));
    }
  } else {
    // Warm path: the formulation-time candidates. Distance-0 matches are
    // possible when a deletion restored exact matches while simFlag stayed
    // set.
    results.similarity = true;
    PRAGUE_RETURN_NOT_OK(
        generate_similar(similar_, rq_.empty() ? nullptr : &rq_));
  }
  local.nodes_expanded += local.similar.nodes_expanded;
  local.srt_seconds = timer.ElapsedSeconds();
  // Phase intervals are disjoint sub-intervals of the Run() wall clock and
  // Stopwatch counts whole steady-clock nanoseconds, so the phase tick
  // counts sum to at most the total's — the breakdown always accounts for
  // at most the SRT. The epsilon only absorbs double rounding.
  assert(local.candidate_seconds + local.verification_seconds +
             local.similarity_seconds <=
         local.srt_seconds + 1e-9);
  ++runs_completed_;
  trace.truncated = local.truncated;
  trace.deadline_phase = RunPhaseName(local.deadline_phase);
  trace.srt_seconds = local.srt_seconds;
  trace.result_count =
      results.similarity ? results.similar.size() : results.exact.size();
  trace.vf2_calls = local.similar.vf2_calls;
  trace.nodes_expanded = local.nodes_expanded;
  trace.candidates_pruned = local.rejected + local.similar.rejected;
  obs::EngineMetrics& em = obs::EngineMetrics::Get();
  em.runs_total->Increment();
  if (local.truncated) em.runs_truncated_total->Increment();
  em.run_latency_us->Record(ToMicros(local.srt_seconds));
  em.vf2_calls_total->Increment(trace.vf2_calls);
  em.nodes_expanded_total->Increment(trace.nodes_expanded);
  em.candidates_pruned_total->Increment(trace.candidates_pruned);
  if (config_.run_tally != nullptr) {
    config_.run_tally->runs.Increment();
    if (local.truncated) config_.run_tally->truncated.Increment();
  }
  last_trace_ = trace;
  if (config_.trace_ring != nullptr) {
    config_.trace_ring->Add(std::move(trace));
  }
  if (stats != nullptr) *stats = local;
  return results;
}

std::optional<ModificationSuggestion> PragueSession::SuggestDeletion() const {
  return SuggestEdgeDeletion(query_, spigs_, snap_->indexes());
}

}  // namespace prague
