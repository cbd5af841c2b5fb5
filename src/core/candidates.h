// Candidate generation — Algorithms 3 and 4.
//
// ExactSubCandidates resolves one SPIG vertex to the id set of data graphs
// that (may) contain its subgraph: exact FSG ids straight from the index
// for frequent fragments and DIFs, or the intersection of the Φ/Υ FSG id
// sets for NIFs (a sound superset).
//
// SimilarSubCandidates walks the SPIG levels |q|−1 … |q|−σ and splits the
// per-level candidates into Rfree — graphs proven to contain a full
// level-i subgraph of q (distance ≤ |q|−i without any verification) — and
// Rver, the NIF-derived candidates that still need an MCCS check.
//
// Incremental candidate engine: a SPIG vertex's candidate set depends
// only on its Fragment List and the (session-immutable) indexes, so it is
// memoized in the vertex (SpigVertex::cand_cache) the first time it is
// resolved. A formulation step therefore only computes candidates for the
// vertices the step created; persisted vertices answer from cache. The
// cache is reset by SpigSet::RefreshForRelabel (the fragment changed) and
// survives edge deletions (surviving fragments are untouched).

#ifndef PRAGUE_CORE_CANDIDATES_H_
#define PRAGUE_CORE_CANDIDATES_H_

#include <map>

#include "core/spig.h"
#include "index/action_aware_index.h"
#include "util/deadline.h"
#include "util/id_set.h"

namespace prague {

/// \brief Algorithm 3: candidate data-graph ids for one SPIG vertex,
/// computed from scratch (no memo read or write).
///
/// For a NIF with empty Φ and Υ the subgraph provably has zero support
/// (every infrequent fragment with support ≥ 1 contains an indexed DIF),
/// so the result is empty.
IdSet ExactSubCandidates(const SpigVertex& v,
                         const ActionAwareIndexes& indexes);

/// \brief Algorithm 3 through the per-vertex memo: answers from
/// v.cand_cache when valid, else computes and fills it. Not thread-safe
/// across calls on the same vertex.
const IdSet& CachedSubCandidates(const SpigVertex& v,
                                 const ActionAwareIndexes& indexes);

/// \brief Per-level split of similarity candidates.
struct SimilarCandidates {
  /// level → verification-free candidate ids (Rfree(i)).
  std::map<int, IdSet> free;
  /// level → candidates needing MCCS verification (Rver(i)), already
  /// de-overlapped against the same level's Rfree (Algorithm 4 line 7).
  std::map<int, IdSet> ver;

  /// \brief |∪ Rfree ∪ Rver| — the candidate-size metric of Figures
  /// 9(b)-(e) and 10. Counted by one merged sweep over the per-level
  /// sets; no intermediate sets are materialized.
  size_t TotalCandidates() const;
  /// \brief Union of all verification-free ids across levels.
  IdSet AllFree() const;
  /// \brief Union of all needs-verification ids across levels.
  IdSet AllVer() const;

  /// \brief Per-level restriction to the graph-id range [begin, end) —
  /// how a sharded run hands each shard its part of the candidates derived
  /// (and memoized) once for the whole database. Levels are preserved even
  /// when a slice comes out empty, so truncation semantics (which levels
  /// were derived) survive the restriction. The free/ver disjointness per
  /// level is preserved by construction.
  SimilarCandidates Restrict(GraphId begin, GraphId end) const;
};

/// \brief Algorithm 4: similarity candidates for the current query.
///
/// \p query_size is |q| in edges; levels below 1 are clamped away.
/// \p use_cache routes per-vertex resolution through the SpigVertex memo
/// (the incremental warm path); pass false to force cold recomputation.
/// Under a bounded \p deadline the walk stops at a level boundary: levels
/// derived before the cut are complete, deeper (more-dissimilar) levels
/// are absent, and \p truncated (optional) reports the cut. A partially
/// derived level is discarded — its candidate set would be an unsound
/// subset.
SimilarCandidates SimilarSubCandidates(const SpigSet& spigs,
                                       size_t query_size, int sigma,
                                       const ActionAwareIndexes& indexes,
                                       bool use_cache = true,
                                       const Deadline& deadline = Deadline(),
                                       bool* truncated = nullptr);

}  // namespace prague

#endif  // PRAGUE_CORE_CANDIDATES_H_
