// Result generation — Algorithm 5 plus exact verification.
//
// Exact (containment) results verify Rq with VF2. Similarity results walk
// the SPIG levels from most- to least-similar (the paper's text mandates
// ordering by increasing subgraph distance), adding verification-free
// candidates outright and running the MCCS-style SimVerify on the rest:
// "does the data graph contain *some* connected level-i subgraph of q?",
// answered with the distinct level-i fragments the SPIG set already holds.

#ifndef PRAGUE_CORE_RESULTS_H_
#define PRAGUE_CORE_RESULTS_H_

#include <vector>

#include "core/candidates.h"
#include "core/spig.h"
#include "graph/graph_database.h"
#include "util/deadline.h"
#include "util/id_set.h"

namespace prague {

/// \brief One similarity match.
struct SimilarMatch {
  GraphId gid = 0;
  /// dist(q, g) — number of query edges missed.
  int distance = 0;
  /// True when the match came out of Rver (an MCCS check ran); false for
  /// verification-free matches from Rfree.
  bool verified = false;

  bool operator==(const SimilarMatch&) const = default;
};

/// \brief What Run returns.
struct QueryResults {
  /// True when these are similarity results (simFlag was set, or the
  /// containment results were empty and PRAGUE fell back — Algorithm 1
  /// lines 19-21).
  bool similarity = false;
  /// Exact containment matches (empty in similarity mode).
  std::vector<GraphId> exact;
  /// Similarity matches ordered by non-decreasing distance.
  std::vector<SimilarMatch> similar;
  /// True when a deadline cut Run() short. What is present is still
  /// sound — a prefix-consistent subset of the unbounded result, since
  /// candidates are decided in a fixed order and generation stops at the
  /// first undecided one.
  bool truncated = false;
};

/// \brief Counters describing one SimilarResultsGen run.
struct SimilarGenStats {
  size_t verification_free = 0;  ///< matches accepted from Rfree
  size_t verified = 0;           ///< Rver candidates that passed SimVerify
  size_t rejected = 0;           ///< Rver candidates that failed
  size_t vf2_calls = 0;          ///< VF2 searches run past the signature test
  size_t nodes_expanded = 0;     ///< VF2 expansion steps spent verifying
};

/// \brief Which phase of a Run() a deadline interrupted.
enum class RunPhase {
  kNone = 0,            ///< no deadline hit
  kExactVerification,   ///< containment verification of Rq
  kSimilarCandidates,   ///< SPIG-level candidate derivation (Algorithm 4)
  kSimilarGeneration,   ///< ordered result generation (Algorithm 5)
};

/// \brief Human-readable phase name for logs and the CLI.
const char* RunPhaseName(RunPhase phase);

/// \brief Timing/counters for one Run (PRAGUE or a baseline session).
struct RunStats {
  double srt_seconds = 0;  ///< total time inside Run()
  size_t verified = 0;     ///< candidates that passed verification
  size_t rejected = 0;     ///< candidates that failed
  SimilarGenStats similar; ///< similarity-path details
  // Per-phase accounting (phases that did not run stay 0).
  double candidate_seconds = 0;     ///< deriving similarity candidates
  double verification_seconds = 0;  ///< exact containment verification
  double similarity_seconds = 0;    ///< Algorithm 5 result generation
  size_t nodes_expanded = 0;        ///< VF2 expansion steps, all phases
  bool truncated = false;           ///< a deadline cut the run short
  RunPhase deadline_phase = RunPhase::kNone;  ///< where the cut landed
};

/// \brief Where a truncated SimilarResultsGen stopped, in the canonical
/// bucket order the output follows: distance ascending; within one
/// distance, verification-free (Rfree) matches before verified (Rver)
/// ones. Every bucket strictly before the cut was emitted in full; within
/// the cut bucket the returned matches are the emitted prefix. This is
/// what lets a sharded run merge per-shard truncations into one globally
/// prefix-consistent result (core/shard_exec.h).
struct SimilarGenCut {
  int distance = 0;     ///< distance of the bucket the cut landed in
  bool in_ver = false;  ///< cut in the Rver half (after all Rfree matches)

  bool operator==(const SimilarGenCut&) const = default;
  /// \brief Canonical bucket order.
  bool operator<(const SimilarGenCut& o) const {
    return distance != o.distance ? distance < o.distance
                                  : in_ver < o.in_ver;
  }
};

/// \brief How a (possibly deadline-bounded) verification scan ended.
struct VerificationOutcome {
  /// True when the deadline cut the scan; the returned matches are then
  /// the decisions made before the cut (a prefix of the candidate order).
  bool truncated = false;
  size_t checked = 0;         ///< candidates fully decided
  size_t nodes_expanded = 0;  ///< VF2 expansion steps spent
};

/// \brief Subgraph-isomorphism verification of the containment candidate
/// set Rq; returns the ids of true matches, ascending. Each candidate is
/// tested against q's edge-label signature before VF2 runs on it. Under a
/// bounded \p deadline the scan stops at the first undecided candidate and
/// \p outcome (optional) reports the cut. Parallelism lives one level up,
/// in the shard scatter (core/shard_exec.h).
std::vector<GraphId> ExactVerification(const Graph& q, const IdSet& rq,
                                       const GraphDatabase& db,
                                       const Deadline& deadline = Deadline(),
                                       VerificationOutcome* outcome = nullptr);

/// \brief Algorithm 5: ordered similarity results.
///
/// \p exact_rq, when non-null, contributes distance-0 matches (possible
/// when an edge deletion restores exact matches while simFlag is already
/// set — the paper's pseudo-code starts at |q|−1 and would miss them).
/// \p stats may be null. A non-zero \p top_k truncates the result list to
/// the k most-similar matches (sound because results are generated in
/// non-decreasing distance order). Every containment check — the MCCS
/// checks and the distance-0 verification — runs VF2 only behind the
/// edge-label signature test (graph/edge_signature.h). Under a bounded
/// \p deadline generation stops at the first undecided candidate — because
/// results are produced in non-decreasing distance order, what is returned
/// is a prefix of the unbounded result list — and \p truncated (optional)
/// reports the cut, with \p cut_pos (optional) recording which bucket it
/// landed in.
std::vector<SimilarMatch> SimilarResultsGen(
    const Graph& q, const SpigSet& spigs, const SimilarCandidates& cands,
    int sigma, const GraphDatabase& db, const IdSet* exact_rq,
    SimilarGenStats* stats, size_t top_k = 0,
    const Deadline& deadline = Deadline(), bool* truncated = nullptr,
    SimilarGenCut* cut_pos = nullptr);

}  // namespace prague

#endif  // PRAGUE_CORE_RESULTS_H_
