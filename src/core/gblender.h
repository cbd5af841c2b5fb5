// GBLENDER baseline (the authors' earlier system [6], Section II).
//
// GBLENDER shares PRAGUE's action-aware indexes but keeps only the most
// recent candidate set Rq, refined step-by-step:
//   * fragment indexed (frequent or DIF) → Rq = its exact FSG ids;
//   * otherwise → Rq := Rq_prev ∩ FSG ids of the fragment's indexed
//     maximal subgraphs.
// Consequences the paper calls out, reproduced here:
//   * once Rq is empty it stays empty — no similarity fallback;
//   * deleting an edge forces a full replay of the formulation from the
//     earliest step (no SPIGs to fall back on), which is what the
//     Table IV/V modification-cost comparison measures.

#ifndef PRAGUE_CORE_GBLENDER_H_
#define PRAGUE_CORE_GBLENDER_H_

#include <memory>

#include "core/results.h"
#include "core/visual_query.h"
#include "graph/graph_database.h"
#include "index/action_aware_index.h"
#include "index/database_snapshot.h"
#include "util/id_set.h"
#include "util/result.h"

namespace prague {

/// \brief What one GBLENDER step did and cost.
struct GbrStepReport {
  FormulationId edge = 0;
  size_t candidates = 0;       ///< |Rq| after the step
  double step_seconds = 0;     ///< candidate refinement time
  double replay_seconds = 0;   ///< full-replay time (Modify only)
  size_t replayed_steps = 0;   ///< steps re-executed by the replay
};

/// \brief The GBLENDER engine.
class GBlenderSession {
 public:
  /// \brief Opens a session pinned to \p snapshot (same pinning semantics
  /// as PragueSession).
  explicit GBlenderSession(SnapshotPtr snapshot);

  /// \brief GUI: user drops a node.
  NodeId AddNode(Label label);
  /// \brief Action New: draw an edge and refine Rq incrementally.
  Result<GbrStepReport> AddEdge(NodeId u, NodeId v, Label edge_label = 0);
  /// \brief Action Modify: delete an edge; replays the whole formulation
  /// (GBLENDER's documented weakness).
  Result<GbrStepReport> DeleteEdge(FormulationId ell);
  /// \brief Action Run: verify Rq with VF2. A bounded \p deadline stops
  /// verification at the first undecided candidate (prefix-consistent, as
  /// in PragueSession) and sets QueryResults::truncated.
  Result<QueryResults> Run(RunStats* stats = nullptr,
                           const Deadline& deadline = Deadline());

  /// \brief Current Rq.
  const IdSet& candidates() const { return rq_; }
  /// \brief Current query fragment.
  const VisualQuery& query() const { return query_; }
  /// \brief The pinned snapshot.
  const SnapshotPtr& snapshot() const { return snap_; }

 private:
  // Refines `rq` for one fragment snapshot (Rq update rule above).
  void StepUpdate(const Graph& fragment, IdSet* rq) const;
  // Recomputes Rq by replaying alive edges in a connectivity-preserving
  // order; returns the number of replayed steps.
  size_t Replay();

  SnapshotPtr snap_;
  VisualQuery query_;
  IdSet rq_;
  bool started_ = false;  // Rq meaningless before the first edge
};

}  // namespace prague

#endif  // PRAGUE_CORE_GBLENDER_H_
