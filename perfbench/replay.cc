#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>

#include "core/prague_session.h"
#include "index/index_maintenance.h"
#include "percentile.h"
#include "query/pattern_parser.h"
#include "server/wire.h"
#include "storage/storage_engine.h"

namespace prague::perfbench {

namespace {

constexpr double kNa = std::numeric_limits<double>::quiet_NaN();

double Us(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

class Replayer {
 public:
  Replayer(const ReplayInput& in, SpanLog* spans) : in_(in), spans_(spans) {}

  ReplayOutput Run();

 private:
  // Records a replay span and returns its id (0 when untraced).
  uint64_t Span(const char* name, uint64_t parent, int64_t start, int64_t end,
                uint32_t conn, uint64_t wire_id) {
    if (spans_ == nullptr) return 0;
    const uint64_t id = spans_->NewId();
    spans_->Record({id, parent, name, "replay", start, end, conn, wire_id});
    return id;
  }

  // Formats and parses one request exactly as client and server would.
  void Codec(WireCommand cmd, uint32_t conn, uint64_t wire_id) {
    cmd.request_id = wire_id;
    const int64_t t0 = NowNs();
    const std::string text = FormatCommand(cmd);
    const int64_t t1 = NowNs();
    const bool ok = ParseCommand(text).ok();
    const int64_t t2 = NowNs();
    if (!ok) ++out_.mismatches;
    wire_parse_us_.push_back(Us(t1, t2));
    Span("FormatCommand", 0, t0, t1, conn, wire_id);
    Span("ParseCommand", 0, t1, t2, conn, wire_id);
  }

  bool AddEdge(PragueSession& s, std::vector<NodeId>& nodes, const Graph& q,
               EdgeId e, FormulationId* ell, uint32_t conn,
               uint64_t wire_id) {
    const Edge& edge = q.GetEdge(e);
    for (NodeId n : {edge.u, edge.v}) {
      if (nodes[n] == kInvalidNode) nodes[n] = s.AddNode(q.NodeLabel(n));
    }
    const int64_t t0 = NowNs();
    Result<StepReport> step = s.AddEdge(nodes[edge.u], nodes[edge.v],
                                        edge.label);
    const int64_t t1 = NowNs();
    if (!step.ok()) {
      ++out_.mismatches;
      return false;
    }
    add_edge_us_.push_back(Us(t0, t1));
    spig_us_.push_back(step->spig_seconds * 1e6);
    refresh_us_.push_back(step->candidate_seconds * 1e6);
    StepSpans("PragueSession::AddEdge", *step, t0, t1, conn, wire_id);
    if (ell != nullptr) *ell = step->edge;
    return true;
  }

  void StepSpans(const char* name, const StepReport& step, int64_t t0,
                 int64_t t1, uint32_t conn, uint64_t wire_id) {
    const uint64_t parent = Span(name, 0, t0, t1, conn, wire_id);
    const auto spig_end = t0 + static_cast<int64_t>(step.spig_seconds * 1e9);
    Span("spig-build", parent, t0, spig_end, conn, wire_id);
    Span("candidate-refresh", parent, spig_end,
         spig_end + static_cast<int64_t>(step.candidate_seconds * 1e9), conn,
         wire_id);
  }

  // Run + reply codec; returns the answer digest (0 on failure).
  uint64_t RunAndEncode(PragueSession& s, uint32_t conn, uint64_t wire_id) {
    RunStats stats;
    const int64_t t0 = NowNs();
    Result<QueryResults> results = s.Run(&stats);
    const int64_t t1 = NowNs();
    if (!results.ok()) {
      ++out_.mismatches;
      return 0;
    }
    srt_us_.push_back(Us(t0, t1));
    ++runs_;
    vf2_calls_ += s.last_run_trace().vf2_calls;
    nodes_expanded_ += s.last_run_trace().nodes_expanded;
    const uint64_t parent = Span("PragueSession::Run", 0, t0, t1, conn,
                                 wire_id);
    int64_t at = t0;
    auto phase = [&](const char* name, double seconds,
                     std::vector<double>* samples) {
      samples->push_back(seconds * 1e6);
      const int64_t end = at + static_cast<int64_t>(seconds * 1e9);
      Span(name, parent, at, end, conn, wire_id);
      at = end;
    };
    if (stats.verification_seconds > 0) {
      phase("exact-verification", stats.verification_seconds, &exact_us_);
      verified_ += stats.verified;
      rejected_ += stats.rejected;
    }
    if (results->similarity) {
      if (stats.candidate_seconds > 0) {
        phase("similar-candidates", stats.candidate_seconds, &sim_cand_us_);
      }
      phase("similar-generation", stats.similarity_seconds, &sim_gen_us_);
      verified_ += stats.similar.verified;
      rejected_ += stats.similar.rejected;
    }
    const int64_t e0 = NowNs();
    const std::string text = FormatRunReply(*results, stats, 0);
    const int64_t e1 = NowNs();
    Result<RunReply> reply = ParseRunReply(text);
    const int64_t e2 = NowNs();
    encode_us_.push_back(Us(e0, e1));
    decode_us_.push_back(Us(e1, e2));
    Span("FormatRunReply", 0, e0, e1, conn, wire_id);
    Span("ParseRunReply", 0, e1, e2, conn, wire_id);
    if (!reply.ok()) {
      ++out_.mismatches;
      return 0;
    }
    return AnswerDigest(reply->similarity, reply->exact, reply->similar);
  }

  void ReplaySession(const SessionRecord& rec, const SnapshotPtr& snap) {
    const Query& q = (*in_.pool)[rec.query];
    uint64_t wire = 0;
    WireCommand cmd;
    cmd.kind = CommandKind::kOpen;
    Codec(cmd, rec.conn, ++wire);
    PragueSession s(snap);
    std::vector<NodeId> nodes(q.graph.NodeCount(), kInvalidNode);
    FormulationId last_ell = 0;
    auto add = [&](EdgeId e) {
      const Edge& edge = q.graph.GetEdge(e);
      WireCommand add_cmd;
      add_cmd.kind = CommandKind::kAddEdge;
      add_cmd.u = edge.u + 1;
      add_cmd.u_label = snap->labels().Name(q.graph.NodeLabel(edge.u));
      add_cmd.v = edge.v + 1;
      add_cmd.v_label = snap->labels().Name(q.graph.NodeLabel(edge.v));
      add_cmd.edge_label = edge.label;
      Codec(add_cmd, rec.conn, ++wire);
      return AddEdge(s, nodes, q.graph, e, &last_ell, rec.conn, wire);
    };
    for (EdgeId e : rec.order) {
      if (!add(e)) return;
    }
    if (rec.modify) {
      const Edge& edge = q.graph.GetEdge(rec.order.back());
      WireCommand del;
      del.kind = CommandKind::kDeleteEdge;
      del.u = edge.u + 1;
      del.v = edge.v + 1;
      Codec(del, rec.conn, ++wire);
      const int64_t t0 = NowNs();
      Result<StepReport> step = s.DeleteEdge(last_ell);
      const int64_t t1 = NowNs();
      if (!step.ok()) {
        ++out_.mismatches;
        return;
      }
      StepSpans("PragueSession::DeleteEdge", *step, t0, t1, rec.conn, wire);
      if (!add(rec.order.back())) return;
    }
    for (uint64_t digest : rec.digests) {
      WireCommand run;
      run.kind = CommandKind::kRun;
      Codec(run, rec.conn, ++wire);
      if (RunAndEncode(s, rec.conn, wire) != digest) ++out_.mismatches;
    }
    WireCommand close;
    close.kind = CommandKind::kClose;
    Codec(close, rec.conn, ++wire);
  }

  // One BATCH_RUN member, as the server runs it: parse, formulate on a
  // fresh session, run.
  void ReplayArrival(const ArrivalRecord& rec) {
    const Query& q = (*in_.pool)[rec.query];
    WireCommand cmd;
    cmd.kind = CommandKind::kBatchRun;
    cmd.batch_patterns = {q.pattern};
    Codec(cmd, rec.conn, rec.wire_id);
    const int64_t t0 = NowNs();
    Result<ParsedPattern> parsed =
        ParsePatternStrict(q.pattern, in_.initial->labels());
    const int64_t t1 = NowNs();
    parse_us_.push_back(Us(t0, t1));
    Span("ParsePattern", 0, t0, t1, rec.conn, rec.wire_id);
    if (!parsed.ok()) {
      ++out_.mismatches;
      return;
    }
    PragueSession member(in_.initial);
    std::vector<NodeId> nodes(parsed->graph.NodeCount(), kInvalidNode);
    for (EdgeId e : parsed->sequence) {
      if (!AddEdge(member, nodes, parsed->graph, e, nullptr, rec.conn,
                   rec.wire_id)) {
        return;
      }
    }
    const uint64_t digest = RunAndEncode(member, rec.conn, rec.wire_id);
    member_us_.push_back(Us(t0, NowNs()));
    if (digest != rec.digest) ++out_.mismatches;
  }

  // Rebuilds the pass's snapshot chain through AppendGraphs (and, with a
  // storage dir, logs each batch through a fresh StorageEngine).
  void ReplayAppends() {
    const PassResult& pass = *in_.pass;
    versions_[in_.initial->version()] = in_.initial;
    if (pass.append_batches.empty()) return;
    std::unique_ptr<storage::StorageEngine> engine;
    if (!in_.storage_dir.empty()) {
      std::filesystem::remove_all(in_.storage_dir);
      Result<std::unique_ptr<storage::StorageEngine>> boot =
          storage::StorageEngine::Bootstrap(in_.storage_dir, *in_.initial,
                                            kAlpha);
      if (!boot.ok()) {
        ++out_.mismatches;
        return;
      }
      engine = std::move(*boot);
    }
    SnapshotPtr snap = in_.initial;
    for (size_t b = 0; b < pass.append_batches.size(); ++b) {
      LabelDictionary batch_labels;
      std::vector<Graph> graphs;
      for (const std::string& text : pass.append_batches[b]) {
        const int64_t t0 = NowNs();
        Result<ParsedPattern> parsed = ParsePattern(text, &batch_labels);
        const int64_t t1 = NowNs();
        parse_us_.push_back(Us(t0, t1));
        Span("ParsePattern", 0, t0, t1, 0, 0);
        if (!parsed.ok()) {
          ++out_.mismatches;
          return;
        }
        graphs.push_back(std::move(parsed->graph));
      }
      // The server's APPEND defaults: α = 0.1, reclassify on.
      MaintenanceOptions options;
      options.alpha = kAlpha;
      options.reclassify = true;
      storage::AppendPayload payload;
      payload.options = options;
      payload.label_names = batch_labels.names();
      payload.graphs = graphs;
      const int64_t t0 = NowNs();
      Result<SnapshotAppendResult> appended =
          AppendGraphs(*snap, std::move(graphs), options, &batch_labels);
      const int64_t t1 = NowNs();
      Span("AppendGraphs", 0, t0, t1, 0, 0);
      if (!appended.ok() ||
          appended->report.to_version != pass.append_versions[b]) {
        ++out_.mismatches;
        return;
      }
      append_ms_.push_back(Us(t0, t1) / 1e3);
      promoted_ += appended->report.promoted_fragments;
      demoted_ += appended->report.demoted_fragments;
      discovered_ += appended->report.discovered_fragments;
      snap = appended->snapshot;
      versions_[snap->version()] = snap;
      if (engine != nullptr) {
        payload.to_version = snap->version();
        const int64_t l0 = NowNs();
        const Status logged = engine->LogAppend(payload);
        const int64_t l1 = NowNs();
        Span("StorageEngine::LogAppend", 0, l0, l1, 0, 0);
        if (!logged.ok()) ++out_.mismatches;
        log_append_ms_.push_back(Us(l0, l1) / 1e3);
      }
    }
    if (engine == nullptr) return;
    const int64_t c0 = NowNs();
    const Status ckpt = engine->Checkpoint(*snap, kAlpha);
    const int64_t c1 = NowNs();
    Span("StorageEngine::Checkpoint", 0, c0, c1, 0, 0);
    engine.reset();
    checkpoint_ms_ = Us(c0, c1) / 1e3;
    {
      const int64_t o0 = NowNs();
      Result<std::unique_ptr<storage::StorageEngine>> reopened =
          storage::StorageEngine::Open(in_.storage_dir);
      const int64_t o1 = NowNs();
      Span("StorageEngine::Open", 0, o0, o1, 0, 0);
      if (!ckpt.ok() || !reopened.ok() ||
          (*reopened)->Stats().recovery_replayed_records != 0) {
        ++out_.mismatches;
      }
      checkpointed_open_ms_ = Us(o0, o1) / 1e3;
    }
    std::filesystem::remove_all(in_.storage_dir);
  }

  const ReplayInput& in_;
  SpanLog* spans_;
  ReplayOutput out_;
  std::map<uint64_t, SnapshotPtr> versions_;

  std::vector<double> wire_parse_us_, encode_us_, decode_us_;
  std::vector<double> add_edge_us_, spig_us_, refresh_us_;
  std::vector<double> srt_us_, exact_us_, sim_cand_us_, sim_gen_us_;
  std::vector<double> member_us_, parse_us_;
  std::vector<double> append_ms_, log_append_ms_;
  uint64_t runs_ = 0, vf2_calls_ = 0, nodes_expanded_ = 0;
  uint64_t verified_ = 0, rejected_ = 0;
  uint64_t promoted_ = 0, demoted_ = 0, discovered_ = 0;
  double checkpoint_ms_ = kNa;
  double checkpointed_open_ms_ = kNa;
};

double Pct(const std::vector<double>& samples, double p) {
  return Percentile(samples, p).value_or(kNa);
}

ReplayOutput Replayer::Run() {
  ReplayAppends();
  const PassResult& pass = *in_.pass;
  // The first sessions of each client: the same ones on every run of a
  // seed, whatever the interleaving between clients was.
  const size_t clients = std::max<size_t>(1, in_.spec->clients);
  const size_t per_client = (kReplayCap + clients - 1) / clients;
  std::map<uint32_t, size_t> taken;
  for (const SessionRecord& rec : pass.sessions) {
    if (rec.digests.size() != rec.runs) continue;  // failed on the wire
    if (taken[rec.client]++ >= per_client) continue;
    auto snap = versions_.find(rec.version);
    if (snap == versions_.end()) {
      ++out_.mismatches;
      continue;
    }
    ReplaySession(rec, snap->second);
  }
  size_t arrivals = 0;
  for (const ArrivalRecord& rec : pass.arrivals) {
    if (!rec.answered || arrivals++ >= kReplayCap) continue;
    ReplayArrival(rec);
  }

  MetricMap& m = out_.metrics;
  m["server.wire_parse_us.p50"] = Pct(wire_parse_us_, 0.5);
  m["server.wire_encode_run_us.p50"] = Pct(encode_us_, 0.5);
  m["server.wire_decode_run_us.p50"] = Pct(decode_us_, 0.5);
  m["core.add_edge_us.p50"] = Pct(add_edge_us_, 0.5);
  m["core.add_edge_us.p99"] = Pct(add_edge_us_, 0.99);
  m["core.spig_build_us.p50"] = Pct(spig_us_, 0.5);
  m["core.candidate_refresh_us.p50"] = Pct(refresh_us_, 0.5);
  m["core.srt_us.p50"] = Pct(srt_us_, 0.5);
  m["core.srt_us.p99"] = Pct(srt_us_, 0.99);
  m["core.exact_verification_us.p50"] = Pct(exact_us_, 0.5);
  m["core.exact_verification_us.p99"] = Pct(exact_us_, 0.99);
  m["core.similar_candidates_us.p50"] = Pct(sim_cand_us_, 0.5);
  m["core.similar_candidates_us.p99"] = Pct(sim_cand_us_, 0.99);
  m["core.similar_generation_us.p50"] = Pct(sim_gen_us_, 0.5);
  m["core.similar_generation_us.p99"] = Pct(sim_gen_us_, 0.99);
  m["core.batch_member_us.p50"] = Pct(member_us_, 0.5);
  m["graph.vf2_calls_per_run"] =
      runs_ > 0 ? static_cast<double>(vf2_calls_) / static_cast<double>(runs_)
                : kNa;
  m["graph.nodes_expanded_per_run"] =
      runs_ > 0 ? static_cast<double>(nodes_expanded_) /
                      static_cast<double>(runs_)
                : kNa;
  m["graph.verify_yield"] =
      verified_ + rejected_ > 0
          ? static_cast<double>(verified_) /
                static_cast<double>(verified_ + rejected_)
          : kNa;
  m["query.parse_pattern_us.p50"] = Pct(parse_us_, 0.5);
  m["index.append_graphs_ms.p50"] = Pct(append_ms_, 0.5);
  m["index.append_graphs_ms.p95"] = Pct(append_ms_, 0.95);
  const bool appends = !pass.append_batches.empty();
  m["index.promoted"] = appends ? static_cast<double>(promoted_) : kNa;
  m["index.demoted"] = appends ? static_cast<double>(demoted_) : kNa;
  m["index.discovered"] = appends ? static_cast<double>(discovered_) : kNa;
  m["storage.log_append_ms.p50"] = Pct(log_append_ms_, 0.5);
  m["storage.checkpoint_ms"] = checkpoint_ms_;
  m["storage.checkpointed_open_ms"] = checkpointed_open_ms_;
  return out_;
}

}  // namespace

ReplayOutput Replay(const ReplayInput& input, SpanLog* spans) {
  return Replayer(input, spans).Run();
}

}  // namespace prague::perfbench
