// PragueSession — Algorithm 1, the PRAGUE engine driven by GUI actions.
//
// One session per query-formulation episode. The caller feeds the visual
// actions the paper monitors — New (AddEdge), Modify (DeleteEdge),
// SimQuery (EnableSimilarity), Run — and the engine does its work inside
// those calls, which in the deployed system execute during GUI latency.
// Run() therefore only performs the residual work (verification + result
// generation): its wall time is the paper's SRT.

#ifndef PRAGUE_CORE_PRAGUE_SESSION_H_
#define PRAGUE_CORE_PRAGUE_SESSION_H_

#include <memory>
#include <optional>

#include "core/candidates.h"
#include "core/session_log.h"
#include "core/modification.h"
#include "core/results.h"
#include "core/spig.h"
#include "core/visual_query.h"
#include "graph/graph_database.h"
#include "index/action_aware_index.h"
#include "index/database_snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace prague {

/// \brief Engine parameters.
struct PragueConfig {
  /// σ — subgraph distance threshold for similarity search.
  int sigma = 3;
  /// When Rq empties on a New action, automatically set simFlag and start
  /// maintaining similarity candidates (models the user answering the
  /// option dialogue with "continue"). When false the session stays in
  /// no-exact-match limbo until the caller calls EnableSimilarity() or
  /// DeleteEdge().
  bool auto_similarity = true;
  /// When > 0, Run() stops generating similarity results after this many
  /// matches. Because Algorithm 5 emits results in non-decreasing distance
  /// order, the truncation is exactly the top-k most similar graphs.
  size_t top_k = 0;
  /// Worker threads for SPIG construction (Algorithm 2): the per-vertex
  /// work of each level fans out with a barrier between levels, producing
  /// SPIGs bit-identical to the sequential build. 1 = sequential.
  size_t spig_threads = 1;
  /// Memoize each SPIG vertex's Algorithm-3 candidate set so candidate
  /// refreshes only compute vertices created by the current step. Same
  /// answers either way; false forces the cold path (benchmarking).
  bool candidate_memo = true;
  /// Default Run() budget in milliseconds; 0 = unbounded. On expiry Run()
  /// degrades gracefully: it returns the prefix of the results decided
  /// before the cut and sets QueryResults::truncated plus the RunStats
  /// phase breakdown. An explicit Run(deadline, ...) overrides this.
  int64_t run_deadline_ms = 0;
  /// Formulation-step budget in milliseconds (SPIG construction during
  /// AddEdge/AddPattern); 0 = unbounded. Unlike Run(), a step cut mid-way
  /// cannot keep a half-built SPIG, so the step fails with
  /// Status::DeadlineExceeded and the query rolls back to the state before
  /// the action — retry with a larger budget to proceed.
  int64_t step_deadline_ms = 0;
  /// Optional cross-thread stop flag, checked together with any deadline
  /// on Run() and on formulation steps. Owned by the caller and must
  /// outlive the session; ManagedSession wires its own token here so a
  /// manager-level thread can cancel work in flight.
  const CancellationToken* cancellation = nullptr;
  /// Optional shared run tally: every completed Run() bumps it, so an
  /// owner (SessionManager) can report cumulative served/truncated counts
  /// across sessions, including closed ones. Must outlive the session.
  obs::RunTally* run_tally = nullptr;
  /// Optional ring of recent run traces: every completed Run() appends its
  /// RunTrace. Must outlive the session (ManagedSession keeps the manager's
  /// ring alive via shared ownership).
  obs::TraceRing* trace_ring = nullptr;
  /// Observability label stamped into this session's RunTraces
  /// (ManagedSession sets its manager-assigned id). Purely diagnostic.
  uint64_t session_tag = 0;
  /// Number of graph-id ranges Run() splits its phases across, clamped
  /// per run to [1, |D|] of the pinned snapshot (core/shard_exec.h).
  /// Results are bit-identical at every count — the split only changes
  /// who computes what. 1 runs everything inline on the calling thread.
  size_t shards = 1;
  /// Pool the per-shard tasks run on, shared across sessions (each run
  /// waits only on its own TaskGroup; SessionManager wires its own).
  /// Null runs as shards = 1, whatever \ref shards says.
  std::shared_ptr<ThreadPool> shard_pool;
};

/// \brief The Status column of Figure 3.
enum class FragmentStatus {
  kFrequent,      ///< the full fragment is a frequent fragment
  kInfrequent,    ///< infrequent but Rq is non-empty
  kNoExactMatch,  ///< Rq = ∅ — "Similar" in the paper's figure
};

/// \brief What one visual step did and cost.
struct StepReport {
  FormulationId edge = 0;        ///< ℓ of the edge added/deleted
  FragmentStatus status = FragmentStatus::kFrequent;
  bool similarity_mode = false;  ///< simFlag after this step
  size_t exact_candidates = 0;   ///< |Rq| (containment path)
  size_t free_candidates = 0;    ///< |∪ Rfree| (similarity path)
  size_t ver_candidates = 0;     ///< |∪ Rver| (similarity path)
  double spig_seconds = 0;       ///< SPIG build/update time this step
  double candidate_seconds = 0;  ///< candidate (re)computation time
};

/// \brief The PRAGUE engine (Algorithm 1).
class PragueSession {
 public:
  /// \brief Opens a session pinned to \p snapshot: every action and Run()
  /// sees exactly that version of the database and indexes, regardless of
  /// appends published while the session is live.
  explicit PragueSession(SnapshotPtr snapshot,
                         const PragueConfig& config = PragueConfig());

  /// \brief GUI: user drops a node on the canvas.
  NodeId AddNode(Label label);
  /// \brief GUI: user drops a node by label name (must be in the
  /// database's dictionary — Panel 2 only offers those).
  Result<NodeId> AddNodeByName(const std::string& label_name);

  /// \brief Action New: draw an edge, build its SPIG, refresh candidates.
  Result<StepReport> AddEdge(NodeId u, NodeId v, Label edge_label = 0);

  /// \brief Action Modify: delete edge eℓ, prune SPIGs, refresh
  /// candidates. Follows Algorithm 6 lines 15-18: exact candidates if the
  /// reduced query has matches, similarity candidates otherwise.
  Result<StepReport> DeleteEdge(FormulationId ell);

  /// \brief Multi-edge deletion (Section VII notes the single-edge
  /// algorithm extends trivially). Edges are removed in an order that
  /// keeps the fragment connected throughout; fails without side effects
  /// if no such order exists.
  Result<StepReport> DeleteEdges(const std::vector<FormulationId>& edges);

  /// \brief Node relabeling (footnote 5). Applied in place: affected SPIG
  /// vertices are re-keyed and their Fragment Lists recomputed, then
  /// candidates refresh exactly as for a Modify action.
  Result<StepReport> RelabelNode(NodeId node, Label new_label);

  /// \brief Drops a canned pattern (footnote 1 — e.g. a benzene ring)
  /// onto the canvas: adds its nodes, then its edges one at a time in a
  /// prefix-connected order, building a SPIG per edge. \p attach maps
  /// pattern nodes to existing session nodes (may be empty iff the canvas
  /// is empty). Returns one StepReport per added edge.
  Result<std::vector<StepReport>> AddPattern(
      const Graph& pattern,
      const std::vector<std::pair<NodeId, NodeId>>& attach = {});

  /// \brief Action SimQuery: user opts into similarity search.
  Result<StepReport> EnableSimilarity();

  /// \brief Action Run: produce final results. Residual work only — its
  /// cost is the SRT. \p stats may be null. Bounded by the config's
  /// run_deadline_ms/cancellation token; see the deadline overload for
  /// truncation semantics.
  Result<QueryResults> Run(RunStats* stats = nullptr);

  /// \brief Run under an explicit \p deadline (overrides the config
  /// budget; the config token still applies if the deadline carries none).
  /// On expiry the result is a prefix-consistent subset of the unbounded
  /// run with QueryResults::truncated set, and RunStats records the phase
  /// the cut landed in plus per-phase timings.
  Result<QueryResults> Run(const Deadline& deadline,
                           RunStats* stats = nullptr);

  /// \brief Algorithm 6 lines 3-8: which edge should be deleted to make
  /// Rq non-empty (largest resulting candidate set)?
  std::optional<ModificationSuggestion> SuggestDeletion() const;

  /// \brief Current query fragment.
  const VisualQuery& query() const { return query_; }
  /// \brief Current SPIG set.
  const SpigSet& spigs() const { return spigs_; }
  /// \brief Current containment candidates Rq.
  const IdSet& exact_candidates() const { return rq_; }
  /// \brief Current similarity candidates (valid in similarity mode).
  const SimilarCandidates& similar_candidates() const { return similar_; }
  /// \brief simFlag.
  bool similarity_mode() const { return sim_flag_; }
  /// \brief σ in effect.
  int sigma() const { return config_.sigma; }
  /// \brief Full engine config in effect (as wired by the owner — e.g.
  /// ManagedSession points cancellation/tally/trace fields at its own
  /// members). Lets a caller spin up sibling sessions with identical
  /// behavior, as the server's BATCH_RUN does for each batch member.
  const PragueConfig& config() const { return config_; }
  /// \brief Every visual action applied so far (crash recovery / replay;
  /// see core/session_log.h). Only successful actions are recorded.
  const SessionLog& action_log() const { return log_; }
  /// \brief The pinned snapshot.
  const SnapshotPtr& snapshot() const { return snap_; }
  /// \brief Version of the pinned snapshot.
  uint64_t version() const { return snap_->version(); }
  /// \brief Trace of the most recent completed Run() (default-constructed
  /// until the first Run). Not thread-safe against a concurrent Run().
  const obs::RunTrace& last_run_trace() const { return last_trace_; }
  /// \brief Number of Run() calls completed on this session.
  uint64_t runs_completed() const { return runs_completed_; }

 private:
  // Recomputes Rq (and similarity candidates if simFlag) from the SPIG
  // set; fills the candidate fields of `report`.
  void RefreshCandidates(StepReport* report);
  // Algorithm 6 lines 15-18 after a modification: leave similarity mode
  // when the modified query has exact candidates again.
  void MaybeExitSimilarity();
  const SpigVertex* TargetVertex() const;

  // Pool for SPIG construction, created lazily when spig_threads > 1.
  // Null means build sequentially.
  ThreadPool* SpigPool();
  // Config-derived budgets (unbounded when the knob is 0), carrying the
  // config's cancellation token.
  Deadline RunDeadline() const;
  Deadline StepDeadline() const;
  // Algorithm 3 for one vertex, memoized or not per config_.
  IdSet VertexCandidates(const SpigVertex& v) const;
  // Books SPIG build time into the cumulative formulation tally and the
  // engine-wide histogram.
  void RecordSpigBuild(double seconds);

  SnapshotPtr snap_;
  PragueConfig config_;

  VisualQuery query_;
  SpigSet spigs_;
  IdSet rq_;
  SimilarCandidates similar_;
  bool sim_flag_ = false;
  std::unique_ptr<ThreadPool> spig_pool_;
  SessionLog log_;
  obs::RunTrace last_trace_;
  uint64_t runs_completed_ = 0;
  // Cumulative formulation-time work (SPIG builds, candidate refreshes)
  // since the session opened; surfaced as spans on each RunTrace so a
  // trace shows the whole episode, not just the Run() residual.
  double formulation_spig_seconds_ = 0;
  double formulation_candidate_seconds_ = 0;
};

}  // namespace prague

#endif  // PRAGUE_CORE_PRAGUE_SESSION_H_
