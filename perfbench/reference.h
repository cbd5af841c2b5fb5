// Index-free reference answers for the benchmark's answer check.
//
// Exact answers are a VF2 containment scan (IsSubgraphIsomorphic) over the
// graphs of the pinned version; when none contains the query, the answer is
// the similarity set {(gid, ComputeMccs distance) : distance <= sigma},
// mirroring the engine's fall-back to similarity search. Neither path
// touches the action-aware indexes, SPIGs or candidate sets, so a wrong
// index, SPIG or candidate refresh shows up as a digest mismatch.
//
// A version is named by its graph count: versions only ever append, so the
// graphs of version v are the first n(v) graphs of the base database
// followed by the appended batches.

#ifndef PRAGUE_PERFBENCH_REFERENCE_H_
#define PRAGUE_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "perfbench.h"

namespace prague::perfbench {

class Reference {
 public:
  /// \p base and \p pool must outlive the reference. \p appended are the
  /// graphs appended after \p base, in gid order.
  Reference(const GraphDatabase* base, std::vector<Graph> appended,
            const std::vector<Query>* pool, int sigma);

  /// \brief Computes the reference digest of every (query, graph count)
  /// pair in \p needed, spread over \p threads threads.
  void Prepare(const std::set<std::pair<uint32_t, size_t>>& needed,
               size_t threads);

  /// \brief Digest of a prepared pair; 0 when it was not prepared.
  uint64_t Digest(uint32_t query, size_t graph_count) const;

  /// \brief Corrupts one prepared digest, so a correct engine must fail
  /// the check (used to test the checker itself).
  void Perturb();

 private:
  const Graph& GraphAt(size_t gid) const;
  // Digests of one query at each of `counts` (ascending).
  std::vector<uint64_t> Solve(const Query& q,
                              const std::vector<size_t>& counts) const;

  const GraphDatabase* base_;
  std::vector<Graph> appended_;
  const std::vector<Query>* pool_;
  int sigma_;
  // Per graph: sorted (min label, max label, edge label) triples of its
  // edges, the prefilter that skips graphs that cannot be within sigma.
  std::vector<std::vector<uint64_t>> edge_keys_;
  std::map<std::pair<uint32_t, size_t>, uint64_t> digests_;
};

}  // namespace prague::perfbench

#endif  // PRAGUE_PERFBENCH_REFERENCE_H_
