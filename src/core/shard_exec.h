// The RUN phases, scattered over graph-id shards — the one execution path
// of every Run(). PRAGUE's database is a set of independent data graphs,
// so exact verification and similarity generation partition cleanly by
// graph id. A shard is a contiguous range [begin, end) of the pinned
// snapshot's ids, computed per run from |D| (ShardPlan::Make); a shard
// task restricts the run's global candidate sets to its range, so no
// per-shard index state exists. shards=1 is one range over the whole
// database, run inline on the caller's thread (TaskGroup's null-pool
// mode): no shard spans, no shard metrics.
//
// The merge discipline is the HistogramSnapshot one — partial results
// combine exactly, never approximately:
//  - Exact verification scans shard ranges independently; concatenating
//    the per-shard match lists in shard order IS ascending graph-id order,
//    because shards own contiguous disjoint ranges.
//  - Similarity generation emits per shard in the canonical bucket order
//    (distance ascending; Rfree before Rver within a distance); the merge
//    walks buckets in that order and concatenates shard contributions in
//    shard order within each bucket — ascending graph id again.
//  - Truncation stays prefix-consistent: each truncated shard reports the
//    bucket its cut landed in (SimilarGenCut); the merge emits everything
//    strictly before the earliest cut, plus — within the cut bucket — the
//    contributions of shards before the cut shard and the cut shard's own
//    emitted prefix, then stops. That is a prefix of the unbounded merged
//    order, exactly like a sequential cut.
//
// Deadlines/cancellation propagate into every shard task (the same
// Deadline object is polled from all of them — it is const and
// thread-safe), so one CANCEL reaches all shards of a run mid-flight.

#ifndef PRAGUE_CORE_SHARD_EXEC_H_
#define PRAGUE_CORE_SHARD_EXEC_H_

#include <vector>

#include "core/candidates.h"
#include "core/results.h"
#include "core/spig.h"
#include "graph/graph_database.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/id_set.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace prague {

/// \brief One shard: the contiguous graph-id range [begin, end).
struct ShardRange {
  GraphId begin = 0;
  GraphId end = 0;

  /// \brief \p set ∩ [begin, end). Shares \p set's buffer when every id
  /// already lies in the range (always, for a single whole-database shard).
  IdSet Restrict(const IdSet& set) const { return set.Slice(begin, end); }
};

/// \brief How one Run() scatters: the shard ranges and the pool their
/// tasks run on (null = inline on the calling thread).
struct ShardPlan {
  std::vector<ShardRange> ranges;
  ThreadPool* pool = nullptr;

  /// \brief Splits [0, \p db_size) into ShardCount(\p shards, \p db_size)
  /// near-equal contiguous ranges; into one range when \p pool is null. A
  /// single range never uses \p pool.
  static ShardPlan Make(size_t db_size, size_t shards, ThreadPool* pool);

  /// \brief Number of ranges (>= 1).
  size_t shard_count() const { return ranges.size(); }
};

/// \brief \p requested clamped to [1, max(1, \p db_size)], so every shard
/// of a non-empty database is non-empty.
size_t ShardCount(size_t requested, size_t db_size);

/// \brief One shard's contribution to a similarity run.
struct ShardSimilarPartial {
  /// Matches in the shard's own canonical order (bucket order; ascending
  /// gid within a bucket).
  std::vector<SimilarMatch> matches;
  SimilarGenStats stats;
  bool truncated = false;
  /// Bucket the cut landed in (valid when truncated). Everything the
  /// shard emitted strictly before this bucket is complete; its matches
  /// inside the bucket are the emitted prefix.
  SimilarGenCut cut;
};

/// \brief Merges per-shard similarity partials into the global result.
/// Pure function of its inputs — exposed so the determinism property tests
/// can drive it directly. \p stats sums the work of every shard (matches
/// the merge drops were still verified); \p truncated reports whether the
/// earliest cut shortened the merged result.
std::vector<SimilarMatch> MergeShardSimilar(
    const std::vector<ShardSimilarPartial>& partials, size_t top_k,
    SimilarGenStats* stats, bool* truncated);

/// \brief ExactVerification scattered over \p plan's shards: per shard a
/// sequential scan of rq ∩ range, gathered in shard (= graph-id) order
/// with prefix-consistent truncation at the first truncated shard.
/// Bit-identical to ExactVerification(q, rq, ...) when nothing truncates.
/// When the plan has several shards, appends per-shard
/// "shard-exact-verification" spans to \p trace. A task failure (escaped
/// exception, captured by the TaskGroup) is reported through \p error; the
/// caller should treat the results as unusable.
std::vector<GraphId> ShardedExactVerification(
    const Graph& q, const IdSet& rq, const GraphDatabase& db,
    const ShardPlan& plan, const Deadline& deadline,
    VerificationOutcome* outcome, obs::RunTrace* trace = nullptr,
    Status* error = nullptr);

/// \brief SimilarResultsGen scattered over \p plan's shards: each shard
/// task restricts \p cands and \p exact_rq to its range and generates its
/// matches. Results are bit-identical to SimilarResultsGen over the whole
/// database; truncation is merged prefix-consistently (see
/// MergeShardSimilar). When the plan has several shards, appends
/// per-shard "shard-similar" spans to \p trace.
std::vector<SimilarMatch> ShardedSimilarRun(
    const Graph& q, const SpigSet& spigs, const SimilarCandidates& cands,
    int sigma, const GraphDatabase& db, const IdSet* exact_rq,
    SimilarGenStats* stats, size_t top_k, const Deadline& deadline,
    const ShardPlan& plan, bool* truncated,
    obs::RunTrace* trace = nullptr, Status* error = nullptr);

}  // namespace prague

#endif  // PRAGUE_CORE_SHARD_EXEC_H_
